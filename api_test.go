package pops

import (
	"fmt"
	"go/ast"
	"go/doc"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
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
	"chaos":                              "overload harness: its tests drive the stack through it (make overload-smoke)",
	"wire/wiretest":                      "request decoder of the fake servers in other packages' tests",
	"graph.Bipartite.Validate":           "structural invariant checker of the graph tests",
	"edgecolor.Verify":                   "proper-coloring checker of the coloring tests",
	"popsnet.SlotError.Unwrap":           "called by errors.Is and errors.As, which name a violation's category",
	"obs.Span.Phase":                     "reads one phase's duration for the tracing tests",
	"obs.Histogram.Count":                "reads a histogram's total for the latency tests",

	"graph.Bipartite.Clone":       "deferred: only TestCloneIndependence calls it",
	"simd/bitvec.Vec.Count":       "deferred: only bitvec's own test calls it",
	"hypercube.Machine.Shift":     "deferred: a simulated machine operation only its package tests run",
	"hypercube.Machine.Broadcast": "deferred: a simulated machine operation only its package tests run",
	"mesh.Machine.Transpose":      "deferred: a simulated machine operation only its package tests run",
}

// TestInternalExportsHaveCallers fails on an exported func or method under
// internal/ that no non-test file of the module or of perfbench uses: a
// kernel has one entry point, and an export only tests call is either a
// test reference (kept above, with its reason) or dead. It type-checks
// every non-test package with go/types and counts a use only where an
// identifier resolves to the declared object, so two methods that share a
// name never count as each other's caller. A method that implements a
// method of an interface some package declares or imports (String, Error,
// ServeHTTP, …) may be called through that interface, so it counts as used.
func TestInternalExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	files := make(map[string][]*ast.File) // import path -> non-test files
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
		// The module is "pops" and perfbench's is "pops/perfbench", so a
		// directory's import path is its path under "pops".
		importPath := "pops"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			importPath += "/" + dir
		}
		files[importPath] = append(files[importPath], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	info := &types.Info{Defs: make(map[*ast.Ident]types.Object), Uses: make(map[*ast.Ident]types.Object)}
	checked := make(map[string]*types.Package)
	var imp importerFunc
	std := stdImporter(t, fset, files)
	imp = func(path string) (*types.Package, error) {
		if pkg := checked[path]; pkg != nil {
			return pkg, nil
		}
		if files[path] == nil {
			return std.Import(path)
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(path, fset, files[path], info)
		if err != nil {
			return nil, err
		}
		checked[path] = pkg
		return pkg, nil
	}
	paths := make([]string, 0, len(files))
	for path := range files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := imp.Import(path); err != nil {
			t.Fatal(err)
		}
	}

	used := make(map[types.Object]bool)
	for _, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			used[fn.Origin()] = true
		}
	}
	// A type the root package aliases is public surface (testdata/api.txt),
	// methods and all.
	root := checked["pops"].Scope()
	for _, name := range root.Names() {
		if tn, ok := root.Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
			if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					used[named.Method(i)] = true
				}
			}
		}
	}
	// Every interface a checked package declares or imports, and error.
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seenPkg := make(map[*types.Package]bool)
	var collect func(pkg *types.Package)
	collect = func(pkg *types.Package) {
		if seenPkg[pkg] {
			return
		}
		seenPkg[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
					ifaces = append(ifaces, iface)
				}
			}
		}
		for _, dep := range pkg.Imports() {
			collect(dep)
		}
	}
	for _, pkg := range checked {
		collect(pkg)
	}
	viaInterface := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv().Type()
		if _, isPtr := recv.(*types.Pointer); !isPtr {
			recv = types.NewPointer(recv) // the pointer's method set holds every method
		}
		for _, iface := range ifaces {
			if types.Implements(recv, iface) {
				for i := 0; i < iface.NumMethods(); i++ {
					if iface.Method(i).Name() == fn.Name() {
						return true
					}
				}
			}
		}
		return false
	}

	keepUsed := make(map[string]bool)
	for ident, obj := range info.Defs {
		fn, ok := obj.(*types.Func)
		if !ok || !fn.Exported() {
			continue
		}
		pkg, internal := strings.CutPrefix(fn.Pkg().Path(), "pops/internal/")
		sig := fn.Type().(*types.Signature)
		if !internal || (sig.Recv() != nil && types.IsInterface(sig.Recv().Type())) {
			continue
		}
		key := pkg + "." + fn.Name()
		if recv := sig.Recv(); recv != nil {
			named := recv.Type()
			if ptr, ok := named.(*types.Pointer); ok {
				named = ptr.Elem()
			}
			key = pkg + "." + named.(*types.Named).Obj().Name() + "." + fn.Name()
		}
		switch {
		case used[fn] || (sig.Recv() != nil && viaInterface(fn)):
		case internalExportKeep[key] != "":
			keepUsed[key] = true
		case internalExportKeep[pkg] != "":
			keepUsed[pkg] = true
		default:
			t.Errorf("%s: exported %s has no caller in a non-test file; delete it, "+
				"or keep it in internalExportKeep with a reason", fset.Position(ident.Pos()), key)
		}
	}
	for key := range internalExportKeep {
		if !keepUsed[key] {
			t.Errorf("internalExportKeep names %s, which is no uncalled export under internal/", key)
		}
	}
}

// stdImporter imports the packages files import from outside them, the
// standard library, from the compiler's export data. One go list call
// locates the export data of them all.
func stdImporter(t *testing.T, fset *token.FileSet, files map[string][]*ast.File) types.Importer {
	seen := make(map[string]bool)
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}}={{.Export}}"}
	for _, fs := range files {
		for _, f := range fs {
			for _, spec := range f.Imports {
				path, err := strconv.Unquote(spec.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				if files[path] == nil && !seen[path] {
					seen[path] = true
					args = append(args, path)
				}
			}
		}
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	exports := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, _ := strings.Cut(line, "=")
		exports[path] = file
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file := exports[path]
		if file == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	})
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
