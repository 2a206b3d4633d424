package repro

import (
	"fmt"
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

// docNameFiles are the documents whose backticked Go names must name
// live declarations. bench/README.md is left out: it records the
// benchmark's tables as they were measured.
var docNameFiles = []string{"DESIGN.md", "README.md", "PROTOCOL.md"}

var (
	// backticked matches one inline code span.
	backticked = regexp.MustCompile("`([^`]+)`")
	// goName matches a span that is a Go name or dotted selector chain,
	// optionally called or instantiated: `Peer.Insert`, `Stats()`,
	// `ExecOptions{Limit: N}`. The capture is the name itself.
	goName = regexp.MustCompile(`^([A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*)(?:\(.*\)|\{.*\})?$`)
	// camelCase matches a bare exported name with at least one lower-
	// case letter, so all-caps words (`WAL`, `N`) read as prose.
	camelCase = regexp.MustCompile(`^[A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*$`)
)

// TestDocsNameLiveIdentifiers fails for every backticked name in the
// checked documents that no longer resolves: a bare CamelCase name must
// be declared somewhere in the module, and in `X.Y` where X is one of
// the module's packages or types, Y must be declared in X (a package
// member, or a method or field of the type). Selectors on names the
// module does not declare — standard-library packages, local variables
// — are prose and are skipped. PROTOCOL.md names frame types by their
// wire names, so a bare `X` also resolves to a FrameX declaration.
func TestDocsNameLiveIdentifiers(t *testing.T) {
	decls := moduleDecls(t)
	for _, doc := range docNameFiles {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		// Blank fenced blocks (shell, not names) line for line, so
		// offsets still give line numbers; inline spans may wrap.
		lines := strings.Split(string(raw), "\n")
		fenced := false
		for i, l := range lines {
			if strings.HasPrefix(strings.TrimSpace(l), "```") {
				fenced = !fenced
				lines[i] = ""
			} else if fenced {
				lines[i] = ""
			}
		}
		text := strings.Join(lines, "\n")
		for _, m := range backticked.FindAllStringSubmatchIndex(text, -1) {
			span := strings.Join(strings.Fields(text[m[2]:m[3]]), " ")
			if name, ok := decls.dead(span); ok {
				line := strings.Count(text[:m[0]], "\n") + 1
				t.Errorf("%s:%d: `%s`: %s is not declared in the module", doc, line, span, name)
			}
		}
	}
}

// declIndex is every name the module declares, including its tests.
type declIndex struct {
	any     map[string]bool            // every declared name
	pkgs    map[string]map[string]bool // package name → top-level names
	members map[string]map[string]bool // type name → method and field names
}

// dead resolves span and, when it names a module declaration that does
// not exist, returns the part that fails.
func (d declIndex) dead(span string) (string, bool) {
	m := goName.FindStringSubmatch(span)
	if m == nil {
		return "", false
	}
	parts := strings.Split(m[1], ".")
	if len(parts) == 1 {
		name := parts[0]
		return name, camelCase.MatchString(name) && !d.any[name] && !d.any["Frame"+name]
	}
	typ := parts[0]
	if top, ok := d.pkgs[parts[0]]; ok {
		if !top[parts[1]] {
			return parts[0] + "." + parts[1], true
		}
		if len(parts) == 2 {
			return "", false
		}
		typ, parts = parts[1], parts[1:]
	}
	members, ok := d.members[typ]
	if !ok {
		return "", false
	}
	return typ + "." + parts[1], !members[parts[1]]
}

// moduleDecls parses every Go file in the repository, tests and the
// bench module included, into a declIndex.
func moduleDecls(t *testing.T) declIndex {
	t.Helper()
	d := declIndex{any: map[string]bool{}, pkgs: map[string]map[string]bool{}, members: map[string]map[string]bool{}}
	add := func(set map[string]map[string]bool, key, name string) {
		if set[key] == nil {
			set[key] = map[string]bool{}
		}
		set[key][name] = true
		d.any[name] = true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != "." && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := f.Name.Name
		for _, decl := range f.Decls {
			switch x := decl.(type) {
			case *ast.FuncDecl:
				if x.Recv != nil {
					add(d.members, receiverName(x.Recv), x.Name.Name)
				} else {
					add(d.pkgs, pkg, x.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range x.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(d.pkgs, pkg, s.Name.Name)
						var fields *ast.FieldList
						switch ty := s.Type.(type) {
						case *ast.StructType:
							fields = ty.Fields
						case *ast.InterfaceType:
							fields = ty.Methods
						}
						if fields == nil {
							continue
						}
						for _, fl := range fields.List {
							for _, n := range fl.Names {
								add(d.members, s.Name.Name, n.Name)
							}
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(d.pkgs, pkg, n.Name)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}
