package repro

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// docCheckedPackages are the packages whose exported API must be fully
// documented: every exported type, function, method, and var/const
// (directly or through its declaration group), plus a package comment.
// CI runs this test (go test .), so the godoc contract cannot rot
// silently. Extend the list as more packages stabilize their APIs.
var docCheckedPackages = []string{
	"internal/cq",
	"internal/faults",
	"internal/glav",
	"internal/pdms",
	"internal/relation",
	"internal/store",
	"internal/transport",
	"internal/view",
}

// TestExportedDocs fails for every exported identifier in the checked
// packages that lacks a doc comment — the in-repo equivalent of
// revive's "exported" rule, with no external tooling needed.
func TestExportedDocs(t *testing.T) {
	for _, dir := range docCheckedPackages {
		t.Run(strings.ReplaceAll(dir, "/", "_"), func(t *testing.T) {
			checkPackageDocs(t, dir)
		})
	}
}

func checkPackageDocs(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	packageDoc := false
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		if f.Doc != nil {
			packageDoc = true
		}
		for _, decl := range f.Decls {
			for _, miss := range undocumented(decl) {
				pos := fset.Position(miss.pos)
				t.Errorf("%s:%d: exported %s %s has no doc comment",
					pos.Filename, pos.Line, miss.kind, miss.name)
			}
		}
	}
	if !packageDoc {
		t.Errorf("%s: no file carries a package doc comment", dir)
	}
}

type missingDoc struct {
	kind string
	name string
	pos  token.Pos
}

// undocumented returns the exported identifiers declared by decl that
// have no doc comment. For grouped var/const/type declarations a doc
// comment on the group covers its specs, matching godoc's rendering.
func undocumented(decl ast.Decl) []missingDoc {
	var out []missingDoc
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || d.Doc != nil {
			return nil
		}
		if d.Recv != nil && !receiverExported(d.Recv) {
			return nil // method on an unexported type: not API surface
		}
		name := d.Name.Name
		if d.Recv != nil {
			name = fmt.Sprintf("(%s).%s", receiverName(d.Recv), name)
		}
		out = append(out, missingDoc{kind: "func", name: name, pos: d.Pos()})
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && s.Doc == nil && d.Doc == nil {
					out = append(out, missingDoc{kind: "type", name: s.Name.Name, pos: s.Pos()})
				}
			case *ast.ValueSpec:
				for _, n := range s.Names {
					if n.IsExported() && s.Doc == nil && d.Doc == nil {
						out = append(out, missingDoc{kind: d.Tok.String(), name: n.Name, pos: n.Pos()})
					}
				}
			}
		}
	}
	return out
}

func receiverExported(recv *ast.FieldList) bool {
	return ast.IsExported(receiverName(recv))
}

func receiverName(recv *ast.FieldList) string {
	if len(recv.List) == 0 {
		return ""
	}
	t := recv.List[0].Type
	for {
		switch v := t.(type) {
		case *ast.StarExpr:
			t = v.X
		case *ast.IndexExpr: // generic receiver
			t = v.X
		case *ast.Ident:
			return v.Name
		default:
			return ""
		}
	}
}
