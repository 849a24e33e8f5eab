package lint

// Module is the whole-run view the interprocedural analyzer (lockorder)
// works against: every loaded package, with function declarations
// resolvable across package boundaries. Analyzers still report per
// package (one Pass each), but may-reach summaries — "this function may
// acquire these mutexes" — are computed once per module and shared
// between passes through Memo.
//
// Cross-package identity: a *types.Func seen from its defining package
// (type-checked from source) and the same function seen from an
// importer (resolved through export data) are different objects, so the
// module keys function facts by FuncKey — the stable
// pkgpath.Type.Method string both views agree on.

import (
	"go/ast"
	"go/types"
	"strings"
)

// FuncKey names a function or method as pkgpath.Func or
// pkgpath.Type.Method, ignoring pointerness of the receiver — the
// module-wide identity of a function across source and export-data
// views.
func FuncKey(f *types.Func) string {
	s := f.FullName()
	s = strings.ReplaceAll(s, "(*", "")
	s = strings.ReplaceAll(s, "(", "")
	return strings.ReplaceAll(s, ")", "")
}

// FuncInfo is one resolved function declaration: the syntax plus the
// package it was loaded in (whose Info type-checks its body).
type FuncInfo struct {
	Decl *ast.FuncDecl
	Pkg  *Package
}

// Module indexes the loaded packages for interprocedural analysis.
type Module struct {
	Pkgs []*Package

	decls map[string]*FuncInfo      // FuncKey -> declaration
	memos map[string]map[string]any // analyzer -> its summary store
}

// NewModule builds the module view over pkgs.
func NewModule(pkgs []*Package) *Module {
	m := &Module{
		Pkgs:  pkgs,
		decls: make(map[string]*FuncInfo),
		memos: make(map[string]map[string]any),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				m.decls[FuncKey(obj)] = &FuncInfo{Decl: fd, Pkg: pkg}
			}
		}
	}
	return m
}

// Decl resolves a called function to its declaration anywhere in the
// module, or nil for functions outside it (standard library, interface
// methods, function values).
func (m *Module) Decl(f *types.Func) *FuncInfo {
	if f == nil {
		return nil
	}
	return m.decls[FuncKey(f)]
}

// Memo returns the named analyzer's module-wide summary store. The
// store persists across the analyzer's passes over different packages;
// the analyzer owns the keys and values (typically FuncKey -> summary).
// Runs are single-goroutine, so no locking.
func (m *Module) Memo(analyzer string) map[string]any {
	s, ok := m.memos[analyzer]
	if !ok {
		s = make(map[string]any)
		m.memos[analyzer] = s
	}
	return s
}
