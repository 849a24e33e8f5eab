package lint

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// This file is the analysistest counterpart: fixture packages under
// testdata/ carry intentional violations annotated with
//
//	// want "regexp"
//
// markers, and RunFixture fails the test unless the analyzer reports
// exactly the expected diagnostics. Fixture packages are type-checked
// under a caller-chosen synthetic import path, so scope-sensitive
// analyzers (ctxflow's internal-package rule) see them as the library
// code they imitate.

var (
	fixtureOnce    sync.Once
	fixtureExports map[string]string
	fixtureErr     error
)

// moduleRoot walks up from dir to the directory containing go.mod.
func moduleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

// fixtureExportMap builds (once per process) the export map covering the
// whole module and its dependencies, so fixtures may import both the
// standard library and arb packages.
func fixtureExportMap() (map[string]string, error) {
	fixtureOnce.Do(func() {
		root, err := moduleRoot(".")
		if err != nil {
			fixtureErr = err
			return
		}
		fixtureExports, fixtureErr = ExportMap(root, "./...")
	})
	return fixtureExports, fixtureErr
}

// LoadFixture type-checks the fixture package in dir (every *.go file)
// under the synthetic import path asPath.
func LoadFixture(dir, asPath string) (*Package, error) {
	exports, err := fixtureExportMap()
	if err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	sort.Strings(files)
	fset := token.NewFileSet()
	return typecheck(fset, exportImporter(fset, exports), asPath, dir, files)
}

var wantRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// expectations parses the `// want "re" ...` markers of a loaded package
// into a map from file:line to pending regexps.
func expectations(pkg *Package) (map[string][]*regexp.Regexp, error) {
	want := make(map[string][]*regexp.Regexp)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, m := range wantRE.FindAllStringSubmatch(text[len("want "):], -1) {
					re, err := regexp.Compile(strings.ReplaceAll(m[1], `\"`, `"`))
					if err != nil {
						return nil, fmt.Errorf("%s: bad want pattern %q: %w", key, m[1], err)
					}
					want[key] = append(want[key], re)
				}
			}
		}
	}
	return want, nil
}

// RunFixture runs one analyzer over the fixture package in dir (loaded
// under import path asPath) and fails t unless the diagnostics match the
// fixture's want markers exactly.
func RunFixture(t *testing.T, a *Analyzer, dir, asPath string) {
	t.Helper()
	pkg, err := LoadFixture(dir, asPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	want, err := expectations(pkg)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run([]*Package{pkg}, []*Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
	}
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		matched := false
		for i, re := range want[key] {
			if re.MatchString(d.Message) {
				want[key] = append(want[key][:i], want[key][i+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	var keys []string
	for k, res := range want {
		if len(res) > 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, re := range want[k] {
			t.Errorf("%s: expected diagnostic matching %q, got none", k, re)
		}
	}
}
