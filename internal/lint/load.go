package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// A Package is a loaded, type-checked package ready for analysis.
// Test files (_test.go) are excluded: the contracts checked here
// concern trace-producing production code, and tests are free to use
// the patterns the analyzers forbid (they route nondeterminism
// through internal/testseed by convention).
type Package struct {
	// Path is the import path the package was type-checked under.
	Path string
	// Dir is the absolute directory holding the package's files.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// A Loader resolves packages the way the go command does, because it
// asks the go command. Each Load or LoadDir runs one
//
//	go list -deps -export -json <patterns>
//
// in the current directory, which names the packages the patterns
// match, lists each one's files with build constraints applied, and
// writes every package's export data to the build cache. The named
// packages are parsed and type-checked from source; their imports are
// read from that export data by the gc importer.
type Loader struct {
	Fset *token.FileSet
}

// NewLoader returns a loader with a fresh file set.
func NewLoader() *Loader { return &Loader{Fset: token.NewFileSet()} }

// listed is the part of one go list record the loader reads.
type listed struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
}

// Load type-checks the packages that go package patterns match, in
// go list's order. As with the go command, "..." patterns skip
// testdata directories, but a directory inside testdata may be named
// explicitly, which is how CI proves the suite can fail on seeded
// violations.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	return l.load(patterns, "")
}

// LoadDir loads the package in dir under an explicit import path.
// Golden tests use this to place testdata fixtures at synthetic
// paths so path-scoped analyzers treat them as the packages they
// imitate.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	pkgs, err := l.load([]string{abs}, importPath)
	if err != nil {
		return nil, err
	}
	return pkgs[0], nil
}

// load lists patterns with the go command and type-checks every
// package they name, under importPath when it is not empty.
func (l *Loader) load(patterns []string, importPath string) ([]*Package, error) {
	cmd := exec.Command("go", append([]string{"list", "-deps", "-export",
		"-json=ImportPath,Dir,Export,GoFiles,DepOnly"}, patterns...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list: %v\n%s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	exports := make(map[string]string)
	var targets []listed
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listed
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("lint: go list: %w", err)
		}
		exports[p.ImportPath] = p.Export
		if !p.DepOnly {
			targets = append(targets, p)
		}
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("lint: %v matched no packages", patterns)
	}
	imp := importer.ForCompiler(l.Fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exports[path])
	})
	pkgs := make([]*Package, 0, len(targets))
	for _, t := range targets {
		if importPath != "" {
			t.ImportPath = importPath
		}
		pkg, err := l.check(t, imp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// check parses one listed package's files and type-checks them.
func (l *Loader) check(t listed, imp types.Importer) (*Package, error) {
	files := make([]*ast.File, 0, len(t.GoFiles))
	for _, name := range t.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(t.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(t.ImportPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", t.ImportPath, err)
	}
	return &Package{Path: t.ImportPath, Dir: t.Dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}, nil
}
