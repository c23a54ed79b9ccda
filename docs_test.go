package tbpoint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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
	declared := map[string]bool{}
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
				declared[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
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
			} else if !declared[name] {
				t.Errorf("%s cites %s, which no _test.go declares", doc, name)
			}
		}
	}
}

func anyHasPrefix(names map[string]bool, prefix string) bool {
	for n := range names {
		if strings.HasPrefix(n, prefix) {
			return true
		}
	}
	return false
}
