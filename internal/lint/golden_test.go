package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fixtureCases pairs each golden fixture under testdata/src with the
// analyzer it exercises and the synthetic import path it is loaded
// under. The paths are chosen so path-scoped analyzers treat the
// fixture as the package it imitates: the nondet fixtures pose as
// trace packages (internal/sim), the errflow fixtures as the proof
// engine (internal/proof), and the rest sit outside internal/ where
// only type identity matters.
var fixtureCases = []struct {
	dir      string
	path     string
	analyzer string
}{
	{"nondetpos", "repro/internal/sim/nondetpos", "nondet"},
	{"nondetneg", "repro/internal/sim/nondetneg", "nondet"},
	{"puresteppos", "repro/fixture/puresteppos", "purestep"},
	{"purestepneg", "repro/fixture/purestepneg", "purestep"},
	{"partitionpos", "repro/fixture/partitionpos", "partition"},
	{"partitionneg", "repro/fixture/partitionneg", "partition"},
	{"lockcopypos", "repro/fixture/lockcopypos", "lockcopy"},
	{"lockcopyneg", "repro/fixture/lockcopyneg", "lockcopy"},
	{"obspos", "repro/fixture/obspos", "lockcopy"},
	{"obsneg", "repro/fixture/obsneg", "lockcopy"},
	{"errflowpos", "repro/internal/proof/errflowpos", "errflow"},
	{"errflowneg", "repro/internal/proof/errflowneg", "errflow"},
	{"errflowledgerpos", "repro/internal/ledger/errflowledgerpos", "errflow"},
	{"errflowledgerneg", "repro/internal/ledger/errflowledgerneg", "errflow"},
	{"invpurepos", "repro/fixture/invpurepos", "invpure"},
	{"invpureneg", "repro/fixture/invpureneg", "invpure"},
}

var (
	wantLineRe = regexp.MustCompile(`^//\s*want\s+(.*)$`)
	wantArgRe  = regexp.MustCompile(`"([^"]*)"`)
)

type wantKey struct {
	file string
	line int
}

// collectWants parses `// want "regex" ["regex" ...]` comments from a
// fixture package, keyed by the comment's position (which, for a
// trailing comment, is the line of the flagged code).
func collectWants(t *testing.T, pkg *Package) map[wantKey][]string {
	t.Helper()
	wants := make(map[wantKey][]string)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantLineRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				args := wantArgRe.FindAllStringSubmatch(m[1], -1)
				if len(args) == 0 {
					t.Fatalf("%s:%d: want comment without quoted regex", pos.Filename, pos.Line)
				}
				key := wantKey{pos.Filename, pos.Line}
				for _, a := range args {
					wants[key] = append(wants[key], a[1])
				}
			}
		}
	}
	return wants
}

// TestGolden runs each analyzer over its positive and negative
// fixture: every diagnostic must be claimed by a want comment on its
// line, and every want comment must be matched by a diagnostic.
// Negative fixtures carry no want comments, so any diagnostic fails.
func TestGolden(t *testing.T) {
	loader := NewLoader()
	for _, fx := range fixtureCases {
		t.Run(fx.dir, func(t *testing.T) {
			a := ByName(fx.analyzer)
			if a == nil {
				t.Fatalf("no analyzer %q registered", fx.analyzer)
			}
			pkg, err := loader.LoadDir(filepath.Join("testdata", "src", fx.dir), fx.path)
			if err != nil {
				t.Fatal(err)
			}
			wants := collectWants(t, pkg)
			if strings.HasSuffix(fx.dir, "pos") && len(wants) == 0 {
				t.Fatal("positive fixture has no want comments")
			}
			diags := Run([]*Package{pkg}, []Analyzer{a})
			for _, d := range diags {
				key := wantKey{d.File, d.Line}
				matched := false
				for i, pat := range wants[key] {
					if regexp.MustCompile(pat).MatchString(d.Message) {
						wants[key] = append(wants[key][:i], wants[key][i+1:]...)
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for key, pats := range wants {
				for _, pat := range pats {
					t.Errorf("%s:%d: no diagnostic matching %q", key.file, key.line, pat)
				}
			}
		})
	}
}

// TestMutationMessages pins the full text of the state-mutation
// diagnostics both purestep and invpure derive from stateWrites; the
// golden want regexes match only a prefix of them.
func TestMutationMessages(t *testing.T) {
	const (
		step = "transition function mutates its state argument (%s); return a fresh state instead (§2.1: steps are relations over immutable states)"
		pred = "invariant predicate mutates its state argument (%s); predicates must be pure observations"
	)
	cases := []struct {
		dir, path, analyzer string
		want                map[int]string // line -> message
	}{
		{"puresteppos", "repro/fixture/puresteppos", "purestep", map[int]string{
			25: fmt.Sprintf(step, "increment of v"),
			31: fmt.Sprintf(step, "delete from map of v"),
			43: fmt.Sprintf(step, "write to pb"),
		}},
		{"invpurepos", "repro/fixture/invpurepos", "invpure", map[int]string{
			30: fmt.Sprintf(pred, "write to pb"),
			58: fmt.Sprintf(pred, "delete from map of b"),
		}},
	}
	loader := NewLoader()
	for _, c := range cases {
		pkg, err := loader.LoadDir(filepath.Join("testdata", "src", c.dir), c.path)
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[int]string)
		for _, d := range Run([]*Package{pkg}, []Analyzer{ByName(c.analyzer)}) {
			if _, pinned := c.want[d.Line]; pinned {
				got[d.Line] = d.Message
			}
		}
		for line, want := range c.want {
			if got[line] != want {
				t.Errorf("%s.go:%d: got %q, want %q", c.dir, line, got[line], want)
			}
		}
	}
}

// TestRepoClean is the acceptance gate for the suite itself: loading
// every package of the repository (testdata excluded, as the go tool
// does) and running all analyzers must produce zero diagnostics.
func TestRepoClean(t *testing.T) {
	loader := NewLoader()
	pkgs, err := loader.Load("../../...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded no packages")
	}
	diags := Run(pkgs, All())
	for _, d := range diags {
		t.Errorf("repo not lint-clean: %s", d)
	}
}

// TestSuppressionReasonRequired checks that a malformed //lint:ignore
// (here: missing the mandatory reason) is itself reported by the
// pseudo-analyzer "lint".
func TestSuppressionReasonRequired(t *testing.T) {
	loader := NewLoader()
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", "badignore"), "repro/fixture/badignore")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run([]*Package{pkg}, All())
	found := false
	for _, d := range diags {
		if d.Analyzer == "lint" && strings.Contains(d.Message, "malformed") {
			found = true
		}
	}
	if !found {
		t.Errorf("malformed directive not reported; got %v", diags)
	}
}
