package arb

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestLockNesting holds the library to one lock at a time: no accessor
// callback of a guard.Mutex or guard.RWMutex (internal/guard) — a call
// X.Do, X.Read or X.Write whose one argument is a function literal, which
// covers sync.Once.Do too — contains another such call, so no function
// takes a second lock while it holds one, and no two locks can be taken in
// both orders. The check is syntactic, over every non-test Go file outside
// benchmark/: orders that go through calls (guard's package doc lists
// them) are covered by the race suite alone.
func TestLockNesting(t *testing.T) {
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "benchmark" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 50 {
		t.Fatalf("found %d Go files; the walk is not at the module root", len(files))
	}
	fset := token.NewFileSet()
	accessors := 0
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		nestings, calls := lockNestings(fset, f)
		for _, n := range nestings {
			t.Errorf("%s", n)
		}
		accessors += calls
	}
	if accessors < 30 {
		t.Fatalf("found %d accessor calls; the check no longer sees the guard's accessors", accessors)
	}
}

// lockNestings reports every accessor call inside another accessor's
// callback in f, as "file:line: inner inside outer (held since line)",
// and counts f's accessor calls.
func lockNestings(fset *token.FileSet, f *ast.File) (out []string, calls int) {
	var held []*ast.CallExpr
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := accessorCallback(call)
		if fn == nil {
			return true
		}
		calls++
		if len(held) > 0 {
			outer := held[len(held)-1]
			out = append(out, fmt.Sprintf("%s: %s inside %s (held since line %d)", fset.Position(call.Pos()),
				exprString(fset, call.Fun), exprString(fset, outer.Fun), fset.Position(outer.Pos()).Line))
		}
		ast.Inspect(call.Fun, walk)
		held = append(held, call)
		ast.Inspect(fn.Body, walk)
		held = held[:len(held)-1]
		return false
	}
	ast.Inspect(f, walk)
	return out, calls
}

// accessorCallback returns the callback of an accessor call X.Do(func...),
// X.Read(func...) or X.Write(func...), and nil for any other call.
func accessorCallback(call *ast.CallExpr) *ast.FuncLit {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) != 1 {
		return nil
	}
	switch sel.Sel.Name {
	case "Do", "Read", "Write":
	default:
		return nil
	}
	fn, _ := call.Args[0].(*ast.FuncLit)
	return fn
}

func exprString(fset *token.FileSet, e ast.Expr) string {
	var b bytes.Buffer
	if err := printer.Fprint(&b, fset, e); err != nil {
		return "?"
	}
	return b.String()
}

// TestLockNestingFires checks the check on the shapes it exists for: a
// second accessor inside a callback, directly or in a nested closure, and
// not two accessors one after the other.
func TestLockNestingFires(t *testing.T) {
	const src = `package p

func nested(a, b *guard.Mutex[int]) {
	a.Do(func(x *int) {
		b.Do(func(y *int) { *y = *x })
	})
}

func inClosure(a *guard.Mutex[int], b *guard.RWMutex[int]) {
	a.Do(func(x *int) {
		f := func() { b.Read(func(y *int) { *x = *y }) }
		f()
	})
}

func sequential(a, b *guard.Mutex[int]) {
	var v int
	a.Do(func(x *int) { v = *x })
	b.Do(func(y *int) { *y = v })
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := lockNestings(fset, f)
	want := []string{
		"p.go:5:3: b.Do inside a.Do (held since line 4)",
		"p.go:11:17: b.Read inside a.Do (held since line 10)",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("nestings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
