package lint

import (
	"path/filepath"
	"testing"
)

// TestBuildConstraints loads a package two of whose three files the go
// command excludes — one by a //go:build ignore line, one by its
// _windows file name — and neither of which type-checks. Both entry
// points must see only the file go build compiles.
func TestBuildConstraints(t *testing.T) {
	dir := filepath.Join("testdata", "src", "buildtags")
	check := func(how string, pkg *Package) {
		t.Helper()
		if len(pkg.Files) != 1 || filepath.Base(pkg.Fset.Position(pkg.Files[0].Pos()).Filename) != "buildtags.go" {
			t.Errorf("%s: want buildtags.go alone, got %d files", how, len(pkg.Files))
		}
	}
	pkgs, err := NewLoader().Load("./" + filepath.ToSlash(dir))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("Load: want 1 package, got %d", len(pkgs))
	}
	check("Load", pkgs[0])
	pkg, err := NewLoader().LoadDir(dir, "repro/fixture/buildtags")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	check("LoadDir", pkg)
}
