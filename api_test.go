package pops

import (
	"fmt"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// apiGoldenPath pins the root package's exported surface, in the spirit of
// Go's own api/ check: one line per exported const, var, func, type, field
// and method. An alias into a package of this module (Options = core.Options,
// ServiceRouteRequest = wire.RouteRequest, …) is followed one level to the
// target's exported fields, with their tags, and methods, so a new planner
// knob or wire field shows up as well. A diff means the public surface
// changed: regenerate with REGEN_GOLDEN=1 and say in CHANGES.md why.
const apiGoldenPath = "testdata/api.txt"

func TestAPIGolden(t *testing.T) {
	got := apiLines(t)
	if os.Getenv("REGEN_GOLDEN") == "1" {
		if err := os.MkdirAll(filepath.Dir(apiGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(apiGoldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(apiGoldenPath)
	if err != nil {
		t.Fatalf("read golden (REGEN_GOLDEN=1 to regenerate): %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	inGot, inWant := make(map[string]bool), make(map[string]bool)
	for _, l := range got {
		inGot[l] = true
	}
	var diff []string
	for _, l := range want {
		inWant[l] = true
		if !inGot[l] {
			diff = append(diff, "- "+l)
		}
	}
	for _, l := range got {
		if !inWant[l] {
			diff = append(diff, "+ "+l)
		}
	}
	if len(diff) > 0 {
		t.Fatalf("exported API differs from %s:\n%s\nIf the change is intended, regenerate with "+
			"REGEN_GOLDEN=1 go test -run TestAPIGolden . and say in CHANGES.md why the surface changed.",
			apiGoldenPath, strings.Join(diff, "\n"))
	}
}

// apiLines renders the root package's exported surface, sorted. It reads the
// non-test sources with go/parser and go/doc only: no type checker, no go
// command. go/doc has already dropped every unexported name, field and
// method.
func apiLines(t *testing.T) []string {
	pkg, imports := parseAPI(t, ".")
	var lines []string
	values := func(tok string, vs []*doc.Value) {
		for _, v := range vs {
			var typ ast.Expr // a const spec without type or value repeats the previous one's type
			for _, s := range v.Decl.Specs {
				spec := s.(*ast.ValueSpec)
				if spec.Type != nil || len(spec.Values) > 0 {
					typ = spec.Type
				}
				for i, name := range spec.Names {
					line := tok + " " + name.Name
					if typ != nil {
						line += " " + types.ExprString(typ)
					}
					if i < len(spec.Values) && !strings.Contains(types.ExprString(spec.Values[i]), "iota") {
						line += " = " + types.ExprString(spec.Values[i])
					}
					lines = append(lines, line)
				}
			}
		}
	}
	funcs := func(fs []*doc.Func) {
		for _, f := range fs {
			lines = append(lines, "func "+f.Name+signature(f.Decl.Type))
		}
	}
	values("const", pkg.Consts)
	values("var", pkg.Vars)
	funcs(pkg.Funcs)
	targets := make(map[string]*doc.Package)
	for _, typ := range pkg.Types {
		values("const", typ.Consts)
		values("var", typ.Vars)
		funcs(typ.Funcs)
		spec := typeSpec(typ)
		head := "type " + typ.Name + " " + typeHead(spec)
		sel, ok := spec.Type.(*ast.SelectorExpr)
		path := ""
		if ok && spec.Assign.IsValid() {
			path = imports[types.ExprString(sel.X)]
		}
		if !strings.HasPrefix(path, "pops/") {
			lines = append(lines, head)
			lines = append(lines, memberLines(head+", ", typ, spec)...)
			continue
		}
		dir := strings.TrimPrefix(path, "pops/")
		if targets[dir] == nil {
			targets[dir], _ = parseAPI(t, dir)
		}
		target := lookupType(targets[dir], sel.Sel.Name)
		if target == nil {
			t.Fatalf("alias %s: no exported type %s in %s", typ.Name, sel.Sel.Name, dir)
		}
		tspec := typeSpec(target)
		lines = append(lines, head+" ("+typeHead(tspec)+")")
		lines = append(lines, memberLines(head+", ", target, tspec)...)
	}
	sort.Strings(lines)
	return lines
}

// parseAPI parses the non-test Go files of dir into their package
// documentation, and maps each import's local name to its path.
func parseAPI(t *testing.T, dir string) (*doc.Package, map[string]string) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	imports := make(map[string]string)
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			local := path[strings.LastIndex(path, "/")+1:]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = path
		}
		files = append(files, f)
	}
	pkg, err := doc.NewFromFiles(fset, files, filepath.ToSlash(filepath.Join("pops", dir)))
	if err != nil {
		t.Fatal(err)
	}
	return pkg, imports
}

func lookupType(pkg *doc.Package, name string) *doc.Type {
	for _, typ := range pkg.Types {
		if typ.Name == name {
			return typ
		}
	}
	return nil
}

func typeSpec(typ *doc.Type) *ast.TypeSpec {
	for _, spec := range typ.Decl.Specs {
		if ts := spec.(*ast.TypeSpec); ts.Name.Name == typ.Name {
			return ts
		}
	}
	panic("go/doc type without its spec: " + typ.Name)
}

// typeHead renders a type declaration without its members.
func typeHead(spec *ast.TypeSpec) string {
	switch spec.Type.(type) {
	case *ast.StructType:
		return "struct"
	case *ast.InterfaceType:
		return "interface"
	}
	if spec.Assign.IsValid() {
		return "= " + types.ExprString(spec.Type)
	}
	return types.ExprString(spec.Type)
}

// memberLines renders typ's exported fields, interface methods and methods,
// promoted ones included, each after prefix.
func memberLines(prefix string, typ *doc.Type, spec *ast.TypeSpec) []string {
	var lines []string
	var members []*ast.Field
	switch st := spec.Type.(type) {
	case *ast.StructType:
		members = st.Fields.List
	case *ast.InterfaceType:
		members = st.Methods.List
	}
	for _, f := range members {
		tag := ""
		if f.Tag != nil {
			tag = " " + f.Tag.Value
		}
		if len(f.Names) == 0 {
			lines = append(lines, prefix+"embedded "+types.ExprString(f.Type)+tag)
		}
		for _, name := range f.Names {
			if ft, ok := f.Type.(*ast.FuncType); ok {
				lines = append(lines, prefix+"method "+name.Name+signature(ft))
			} else {
				lines = append(lines, prefix+"field "+name.Name+" "+types.ExprString(f.Type)+tag)
			}
		}
	}
	for _, m := range typ.Methods {
		lines = append(lines, fmt.Sprintf("%smethod (%s) %s%s", prefix, m.Recv, m.Name, signature(m.Decl.Type)))
	}
	return lines
}

// signature renders a func type's parameter and result types, without
// names, so renaming a parameter is not an API change.
func signature(ft *ast.FuncType) string {
	list := func(fl *ast.FieldList) []string {
		var out []string
		if fl == nil {
			return out
		}
		for _, f := range fl.List {
			for range max(1, len(f.Names)) {
				out = append(out, types.ExprString(f.Type))
			}
		}
		return out
	}
	s := "(" + strings.Join(list(ft.Params), ", ") + ")"
	switch results := list(ft.Results); len(results) {
	case 0:
	case 1:
		s += " " + results[0]
	default:
		s += " (" + strings.Join(results, ", ") + ")"
	}
	return s
}

// internalExportKeep names the exported funcs and methods under internal/
// that no non-test file calls but that stay, each with its reason. A key is
// "pkg.Func" or "pkg.Type.Method", pkg being the path below internal/; a
// bare "pkg" keeps every export of that package.
var internalExportKeep = map[string]string{
	"matching.Kuhn":                      "augmenting-path reference matcher the Hopcroft–Karp peel is tested against",
	"matching.VerifyMatching":            "matching checker of the matching and coloring tests",
	"edgecolor.Factorizer.FactorizeInto": "batch 1-factorization: the reference the factor streams and the coloring goldens are held to",
	"graph.Circulant":                    "regular test-graph generator shared by the graph, matching and coloring tests",
	"graph.Bipartite.SubgraphByEdges":    "materializes an edge view, the reference of the splitter and matcher view tests",
	"popsnet.Network.LocalIndex":         "part of the public surface through pops.Network (testdata/api.txt)",
	"chaos":                              "overload harness: its tests drive the stack through it (make overload-smoke)",
	"wire/wiretest":                      "request decoder of the fake servers in other packages' tests",

	"popsnet.PermuteWithinGroups": "deferred: the only subject of three tier-1 tests; cut together with them in a later change",
	"popsnet.GroupBroadcast":      "deferred: the only subject of two tier-1 tests; cut together with them in a later change",
	"popsnet.State.Holding":       "deferred: the only subject of TestStateHoldingCopyIsolated; cut together with it in a later change",
	"graph.Bipartite.Union":       "deferred: the only subject of TestUnion and TestUnionSizeMismatchPanics; cut together with them in a later change",
}

// TestInternalExportsHaveCallers fails on an exported func or method under
// internal/ whose name appears in no non-test file of the module or of
// perfbench except its own declaration: a kernel has one entry point, and
// an export only tests call is either a test reference (kept above, with
// its reason) or dead. It parses files with go/parser and matches
// identifiers by name, without a type checker, so a name shared with any
// other identifier — another declaration of the same name included —
// counts as a caller.
func TestInternalExportsHaveCallers(t *testing.T) {
	type export struct{ pkg, key, name, pos string }
	var exports []export
	idents := make(map[string]int) // identifier -> occurrences in non-test files
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				idents[id.Name]++
			}
			return true
		})
		pkg, internal := strings.CutPrefix(filepath.ToSlash(filepath.Dir(path)), "internal/")
		if !internal {
			return nil
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			key := pkg + "." + fd.Name.Name
			if fd.Recv != nil {
				recv := fd.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				key = pkg + "." + types.ExprString(recv) + "." + fd.Name.Name
			}
			exports = append(exports, export{pkg, key, fd.Name.Name, fset.Position(fd.Pos()).String()})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	used := make(map[string]bool)
	for _, e := range exports {
		if idents[e.name] > 1 {
			continue
		}
		switch {
		case internalExportKeep[e.key] != "":
			used[e.key] = true
		case internalExportKeep[e.pkg] != "":
			used[e.pkg] = true
		default:
			t.Errorf("%s: exported %s has no caller in a non-test file; delete it, "+
				"or keep it in internalExportKeep with a reason", e.pos, e.key)
		}
	}
	for key := range internalExportKeep {
		if !used[key] {
			t.Errorf("internalExportKeep names %s, which is no uncalled export under internal/", key)
		}
	}
}
