package tbpoint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// citingDocs are the files whose test citations must name real tests.
// ROADMAP.md is left out on purpose: it names tests still to be written.
var citingDocs = []string{
	"README.md", "DESIGN.md", "EXPERIMENTS.md",
	"scripts/ci.sh", ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md",
}

// citedTest matches a test, benchmark or fuzz target name; a trailing "…"
// or "*" makes it a prefix.
var citedTest = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*(?:…|\*)?`)

// TestDocsCiteDeclaredTests fails when a document cites a Test*, Benchmark*
// or Fuzz* name that no _test.go in the repository declares, so a renamed
// or deleted test cannot leave a stale pointer behind.
func TestDocsCiteDeclaredTests(t *testing.T) {
	declared := testFuncs(t)
	for _, doc := range citingDocs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range citedTest.FindAllString(string(b), -1) {
			if prefix := strings.TrimSuffix(strings.TrimSuffix(name, "…"), "*"); prefix != name {
				if !anyHasPrefix(declared, prefix) {
					t.Errorf("%s cites %s, but no declared test starts with %s", doc, name, prefix)
				}
			} else if _, ok := declared[name]; !ok {
				t.Errorf("%s cites %s, which no _test.go declares", doc, name)
			}
		}
	}
}

// testFuncs maps each top-level function declared in a _test.go file of the
// repository (hidden directories aside) to the directory declaring it.
func testFuncs(t *testing.T) map[string]string {
	t.Helper()
	declared := map[string]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				declared[fn.Name.Name] = filepath.Dir(path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return declared
}

func anyHasPrefix(names map[string]string, prefix string) bool {
	for n := range names {
		if strings.HasPrefix(n, prefix) {
			return true
		}
	}
	return false
}

// ciFuzzTarget matches one line of scripts/ci.sh's fuzz stage,
// `fuzz <Name> <package dir>`.
var ciFuzzTarget = regexp.MustCompile(`(?m)^\s*fuzz (\w+) (\S+)`)

// TestCIFuzzStageRunsEveryFuzzTarget fails unless the fuzz stage of
// scripts/ci.sh runs exactly the Fuzz* targets the root module's _test.go
// files declare, each in the package that declares it: a new target left
// off the list would never be fuzzed, and a moved one would fail only in a
// full CI run.
func TestCIFuzzStageRunsEveryFuzzTarget(t *testing.T) {
	declared := map[string]string{} // target -> package dir
	for name, dir := range testFuncs(t) {
		// bench/ is its own module (tbpoint/bench): root ./... never sees it.
		if strings.HasPrefix(name, "Fuzz") && dir != "bench" && !strings.HasPrefix(dir, "bench"+string(filepath.Separator)) {
			declared[name] = dir
		}
	}
	script, err := os.ReadFile("scripts/ci.sh")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, m := range ciFuzzTarget.FindAllStringSubmatch(string(script), -1) {
		name, dir := m[1], filepath.Clean(m[2])
		listed[name] = true
		if got, ok := declared[name]; !ok {
			t.Errorf("scripts/ci.sh fuzzes %s in %s, but no root-module _test.go declares it", name, dir)
		} else if got != dir {
			t.Errorf("scripts/ci.sh fuzzes %s in %s, but it is declared in %s", name, dir, got)
		}
	}
	var unlisted []string
	for name, dir := range declared {
		if !listed[name] {
			unlisted = append(unlisted, name+" ("+dir+")")
		}
	}
	slices.Sort(unlisted)
	for _, u := range unlisted {
		t.Errorf("%s is declared but scripts/ci.sh's fuzz stage does not run it", u)
	}
}
