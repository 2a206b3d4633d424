package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestForceGreedyStaysInPlanner fences cq.CompileOptions.ForceGreedy to
// the planner's oracle role: it walks every non-test Go file in the
// module tree (the bench module included) and fails on any identifier
// named ForceGreedy outside internal/cq, so no serving path can switch
// the cost-based join orderer off. Tests may still set it.
func TestForceGreedyStaysInPlanner(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == filepath.Join("internal", "cq") || path != "." && strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == "ForceGreedy" {
				t.Errorf("%s names ForceGreedy outside internal/cq", fset.Position(id.Pos()))
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
