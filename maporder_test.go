package tbpoint

import (
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
	"strings"
	"testing"
)

// mapOrderPackages are the packages whose results must not depend on Go's
// randomized map iteration order: the estimators, their numerics and the
// harness that reports them. Every command and example is linted too.
var mapOrderPackages = []string{"core", "sampler", "sampling", "simpoint", "cluster", "stats", "experiments"}

// mapOrderAllowed lists the map ranges the lint accepts, keyed by
// "package.Function target" (package: the directory under internal/, or
// cmd/X or examples/X), each with the reason iteration order cannot reach a
// result.
var mapOrderAllowed = map[string]string{
	"experiments.TargetNames names":  "keys sorted on the next line",
	"examples/multilaunch.main cids": "keys sorted on the next line",
}

// TestMapOrderLint fails on a range over a map whose body accumulates into a
// float (op-assignment, or x = x op y), appends to a slice declared outside
// the loop, or writes output (fmt.Print*/Fprint*, log.Print*/Fatal*,
// durable.WriteFile*), in the non-test code of mapOrderPackages, cmd/* and
// examples/*. Float addition is not associative, and append and output keep
// visiting order, so each makes a result or a report differ from run to run;
// three estimators and three region-table printers shipped that bug before.
func TestMapOrderLint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go list and type-checks the linted packages")
	}
	dirs := make([]string, 0, len(mapOrderPackages))
	for _, pkg := range mapOrderPackages {
		dirs = append(dirs, filepath.Join("internal", pkg))
	}
	for _, glob := range []string{"cmd/*", "examples/*"} {
		m, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		dirs = append(dirs, m...)
	}
	fset := token.NewFileSet()
	conf := types.Config{Importer: exportImporter(t, fset, dirs)}
	seen := map[string]bool{}
	for _, dir := range dirs {
		pkg := filepath.ToSlash(strings.TrimPrefix(dir, "internal"+string(filepath.Separator)))
		files := parseNonTest(t, fset, dir)
		info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}
		if _, err := conf.Check("tbpoint/"+filepath.ToSlash(dir), fset, files, info); err != nil {
			t.Fatalf("type-checking %s: %v", dir, err)
		}
		for _, f := range files {
			for _, fd := range f.Decls {
				fn, ok := fd.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				for _, v := range mapOrderViolations(info, fn.Body) {
					key := fmt.Sprintf("%s.%s %s", pkg, fn.Name.Name, v.target)
					seen[key] = true
					if _, ok := mapOrderAllowed[key]; !ok {
						t.Errorf("%s: range over a map %s %s in %s: sort the keys first, or allowlist %q with the reason order cannot matter",
							fset.Position(v.pos), v.what, v.target, fn.Name.Name, key)
					}
				}
			}
		}
	}
	for key := range mapOrderAllowed {
		if !seen[key] {
			t.Errorf("allowlist entry %q matches nothing; delete it", key)
		}
	}
}

// exportImporter imports the dependencies of dirs from the compiler's export
// data, which one go list run locates (and the build cache keeps cheap),
// rather than type-checking all of them, the standard library included,
// from source.
func exportImporter(t *testing.T, fset *token.FileSet, dirs []string) types.Importer {
	t.Helper()
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}} {{.Export}}"}
	for _, d := range dirs {
		args = append(args, "./"+filepath.ToSlash(d))
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(string(out), "\n") {
		if path, file, ok := strings.Cut(line, " "); ok && file != "" {
			exports[path] = file
		}
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	})
}

func parseNonTest(t *testing.T, fset *token.FileSet, dir string) []*ast.File {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

type mapOrderViolation struct {
	pos          token.Pos
	what, target string
}

// mapOrderViolations finds, under body, every range over a map whose own
// body accumulates into a float, appends to a slice declared outside it or
// writes output.
func mapOrderViolations(info *types.Info, body ast.Node) []mapOrderViolation {
	var out []mapOrderViolation
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if _, isMap := info.TypeOf(rs.X).Underlying().(*types.Map); !isMap {
			return true
		}
		// outer names the variable e writes through when it is declared
		// outside the loop.
		outer := func(e ast.Expr) (string, bool) {
			id := rootIdent(e)
			if id == nil {
				return "", false
			}
			obj := info.Uses[id]
			if obj == nil || obj.Pos() >= rs.Pos() && obj.Pos() < rs.End() {
				return "", false
			}
			return types.ExprString(e), true
		}
		ast.Inspect(rs.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if fn := outputFunc(info, call); fn != "" {
					out = append(out, mapOrderViolation{call.Pos(), "writes output with", fn})
				}
				return true
			}
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				return true
			}
			lhs, rhs := as.Lhs[0], as.Rhs[0]
			target, ok := outer(lhs)
			if !ok {
				return true
			}
			switch {
			case isFloat(info.TypeOf(lhs)) && (as.Tok != token.ASSIGN || selfBinary(lhs, rhs)):
				out = append(out, mapOrderViolation{as.Pos(), "accumulates into the float", target})
			case isAppendTo(info, lhs, rhs):
				out = append(out, mapOrderViolation{as.Pos(), "appends to the slice", target})
			}
			return true
		})
		return true
	})
	return out
}

// outputPrefixes are, per imported package path, the name prefixes of the
// functions that write output.
var outputPrefixes = map[string][]string{
	"fmt":                      {"Print", "Fprint"},
	"log":                      {"Print", "Fatal"},
	"tbpoint/internal/durable": {"WriteFile"},
}

// outputFunc names the output function call invokes (say "fmt.Printf"), or
// is empty when it invokes none.
func outputFunc(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pkg, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	for _, p := range outputPrefixes[pkg.Imported().Path()] {
		if strings.HasPrefix(sel.Sel.Name, p) {
			return id.Name + "." + sel.Sel.Name
		}
	}
	return ""
}

// rootIdent is the variable an assignment target writes through: x for x,
// x.f and x.f.g. Index expressions are keyed writes, so they have none.
func rootIdent(e ast.Expr) *ast.Ident {
	switch e := e.(type) {
	case *ast.Ident:
		return e
	case *ast.SelectorExpr:
		return rootIdent(e.X)
	case *ast.ParenExpr:
		return rootIdent(e.X)
	case *ast.StarExpr:
		return rootIdent(e.X)
	}
	return nil
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}

// selfBinary reports whether rhs is lhs op y, i.e. an accumulation spelled
// out.
func selfBinary(lhs, rhs ast.Expr) bool {
	be, ok := ast.Unparen(rhs).(*ast.BinaryExpr)
	return ok && types.ExprString(be.X) == types.ExprString(lhs)
}

// isAppendTo reports whether rhs is append(lhs, ...) with the builtin.
func isAppendTo(info *types.Info, lhs, rhs ast.Expr) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if _, builtin := info.Uses[fn].(*types.Builtin); !builtin || fn.Name != "append" {
		return false
	}
	return types.ExprString(call.Args[0]) == types.ExprString(lhs)
}
