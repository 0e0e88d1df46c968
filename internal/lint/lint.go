// Package lint is a from-scratch static analyzer suite for this
// repository, built on the Go standard library and the go command
// (go/parser, go/ast, go/types, go/importer, and `go list` to resolve
// packages — no x/tools dependency). It enforces the semantic
// contracts of the IOA model that the runtime otherwise checks
// dynamically (or not at all): no unseeded nondeterminism in
// trace-producing code, pure transition functions, pure invariant
// predicates, well-formed action partitions, no by-value copies of
// sharded-mutex caches, and no silently discarded errors in the proof
// and exploration engines.
//
// Analyzers self-register via Register (each analyzer file carries an
// init function), run over type-checked packages produced by a Loader,
// and report file:line diagnostics. Where two analyzers check the same
// thing they share one walk: purestep and invpure the anchor index and
// the state-mutation walk (purestep.go), nondet and invpure the
// clock/rand classifier and the map-order walk (nondet.go). A diagnostic may be suppressed at
// its site with an inline directive on the same line or the line
// above:
//
//	//lint:ignore <analyzer>[,<analyzer>|all] <reason>
//
// The reason is mandatory; a directive without one is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// A Diagnostic is one analyzer finding at a source position.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.File, d.Line, d.Col, d.Message, d.Analyzer)
}

// An Analyzer checks one contract over a type-checked package.
// Implementations register themselves with Register from an init
// function, so importing the package assembles the full suite.
type Analyzer interface {
	// Name is the analyzer's identifier, used in -enable/-disable
	// flags, suppression directives, and diagnostic output.
	Name() string
	// Doc is a one-line description of the contract enforced.
	Doc() string
	// Run reports violations found in the pass's package.
	Run(*Pass)
}

var registry = make(map[string]Analyzer)

// Register adds an analyzer to the suite. It panics on duplicate
// names; analyzers are singletons registered at init time.
func Register(a Analyzer) {
	if _, dup := registry[a.Name()]; dup {
		panic("lint: duplicate analyzer " + a.Name())
	}
	registry[a.Name()] = a
}

// All returns every registered analyzer, sorted by name.
func All() []Analyzer {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]Analyzer, len(names))
	for i, n := range names {
		out[i] = registry[n]
	}
	return out
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) Analyzer { return registry[name] }

// A Pass is one analyzer's view of one package: the syntax trees, the
// type information, and a report sink that routes through suppression
// filtering.
type Pass struct {
	Pkg      *Package
	analyzer string
	report   func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	p.report(Diagnostic{
		Analyzer: p.analyzer,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of an expression, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// CalleeFunc resolves the function or method called by call, when the
// callee is a declared func (not a func-typed variable or builtin).
func (p *Pass) CalleeFunc(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := p.Pkg.Info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := p.Pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// objectOf resolves an identifier to its object via Uses or Defs.
func (p *Pass) objectOf(id *ast.Ident) types.Object {
	if obj := p.Pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return p.Pkg.Info.Defs[id]
}

// internalSegment returns the path segment immediately following
// "internal" in an import path ("sim" for repro/internal/sim/...), or
// "" when the path has no internal element. Analyzers use it to scope
// package-specific contracts (and golden tests exercise the scoping by
// loading fixtures under synthetic internal paths).
func internalSegment(path string) string {
	segs := strings.Split(path, "/")
	for i, s := range segs {
		if s == "internal" && i+1 < len(segs) {
			return segs[i+1]
		}
	}
	return ""
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	analyzers map[string]bool // nil means "all"
	line      int
}

// suppressions indexes ignore directives by file and line.
type suppressions map[string]map[int][]ignoreDirective

// matches reports whether a diagnostic is covered by a directive on
// its own line or the line above it.
func (s suppressions) matches(d Diagnostic) bool {
	byLine := s[d.File]
	for _, line := range []int{d.Line, d.Line - 1} {
		for _, dir := range byLine[line] {
			if dir.analyzers == nil || dir.analyzers[d.Analyzer] {
				return true
			}
		}
	}
	return false
}

const ignorePrefix = "//lint:ignore"

// collectIgnores parses every //lint:ignore directive in the package.
// Malformed directives (missing analyzer list or reason) are returned
// as diagnostics from the pseudo-analyzer "lint".
func collectIgnores(pkg *Package) (suppressions, []Diagnostic) {
	sup := make(suppressions)
	var bad []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimPrefix(c.Text, ignorePrefix)
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{
						Analyzer: "lint", File: pos.Filename, Line: pos.Line, Col: pos.Column,
						Message: "malformed //lint:ignore: want \"//lint:ignore <analyzer>[,<analyzer>|all] <reason>\"",
					})
					continue
				}
				var names map[string]bool
				if fields[0] != "all" {
					names = make(map[string]bool)
					for _, n := range strings.Split(fields[0], ",") {
						if ByName(n) == nil {
							bad = append(bad, Diagnostic{
								Analyzer: "lint", File: pos.Filename, Line: pos.Line, Col: pos.Column,
								Message: fmt.Sprintf("//lint:ignore names unknown analyzer %q", n),
							})
						}
						names[n] = true
					}
				}
				if sup[pos.Filename] == nil {
					sup[pos.Filename] = make(map[int][]ignoreDirective)
				}
				sup[pos.Filename][pos.Line] = append(sup[pos.Filename][pos.Line],
					ignoreDirective{analyzers: names, line: pos.Line})
			}
		}
	}
	return sup, bad
}

// Run applies the given analyzers to the given packages, honoring
// //lint:ignore suppressions, and returns all diagnostics sorted by
// position.
func Run(pkgs []*Package, analyzers []Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		sup, bad := collectIgnores(pkg)
		diags = append(diags, bad...)
		for _, a := range analyzers {
			pass := &Pass{Pkg: pkg, analyzer: a.Name()}
			pass.report = func(d Diagnostic) {
				if sup.matches(d) {
					return
				}
				diags = append(diags, d)
			}
			a.Run(pass)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags
}
