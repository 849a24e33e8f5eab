package lint

import (
	"go/token"
	"path/filepath"
	"testing"
)

func TestBaselineRoundTrip(t *testing.T) {
	const root = "/mod"
	diags := []Diagnostic{
		{Analyzer: "closecheck", Pos: token.Position{Filename: "/mod/a/f.go", Line: 10}, Message: "leak"},
		{Analyzer: "closecheck", Pos: token.Position{Filename: "/mod/a/f.go", Line: 22}, Message: "leak"},
		{Analyzer: "lockorder", Pos: token.Position{Filename: "/mod/b.go", Line: 3}, Message: "inversion"},
	}
	path := filepath.Join(t.TempDir(), "base.json")
	if err := WriteBaseline(path, root, diags); err != nil {
		t.Fatal(err)
	}
	b, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}

	fresh, absorbed := b.Filter(root, diags)
	if len(fresh) != 0 || absorbed != 3 {
		t.Fatalf("identical findings: fresh=%d absorbed=%d, want 0/3", len(fresh), absorbed)
	}

	// Line numbers are not part of the match: shifted findings still
	// land in the baseline.
	shifted := make([]Diagnostic, len(diags))
	copy(shifted, diags)
	for i := range shifted {
		shifted[i].Pos.Line += 100
	}
	if fresh, absorbed = b.Filter(root, shifted); len(fresh) != 0 || absorbed != 3 {
		t.Fatalf("line-shifted findings: fresh=%d absorbed=%d, want 0/3", len(fresh), absorbed)
	}

	// A new instance of an already-baselined finding in the same file
	// exceeds the recorded count and must surface.
	extra := append(shifted, Diagnostic{
		Analyzer: "closecheck",
		Pos:      token.Position{Filename: "/mod/a/f.go", Line: 999},
		Message:  "leak",
	})
	fresh, absorbed = b.Filter(root, extra)
	if len(fresh) != 1 || absorbed != 3 {
		t.Fatalf("count overflow: fresh=%d absorbed=%d, want 1/3", len(fresh), absorbed)
	}

	// A missing baseline file is an empty baseline, not an error.
	empty, err := LoadBaseline(filepath.Join(t.TempDir(), "nope.json"))
	if err != nil {
		t.Fatal(err)
	}
	if fresh, absorbed = empty.Filter(root, diags); len(fresh) != 3 || absorbed != 0 {
		t.Fatalf("empty baseline: fresh=%d absorbed=%d, want 3/0", len(fresh), absorbed)
	}
}

func TestRelFile(t *testing.T) {
	if got := RelFile("/mod", "/mod/pkg/file.go"); got != "pkg/file.go" {
		t.Errorf("RelFile under root = %q, want pkg/file.go", got)
	}
	if got := RelFile("/mod", "/elsewhere/file.go"); got != "/elsewhere/file.go" {
		t.Errorf("RelFile outside root = %q, want the absolute path back", got)
	}
	if got := RelFile("", "/abs/file.go"); got != "/abs/file.go" {
		t.Errorf("RelFile without root = %q, want the path unchanged", got)
	}
}
