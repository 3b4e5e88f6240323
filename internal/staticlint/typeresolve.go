package staticlint

// Whole-program loading and type resolution for `weseer vet`, built on
// the standard library only (go/parser + go/types; no x/tools). The
// loader walks the target directory tree, parses every package found
// there, and type-checks them against a self-contained importer that
// resolves module-internal import paths by mapping them onto
// directories under the enclosing go.mod. Everything else — stdlib and
// out-of-module imports — resolves to an empty placeholder package, and
// the checker runs with a tolerant error handler, so partial or even
// broken type information degrades precision instead of aborting the
// scan (lint fixtures deliberately reference undefined identifiers).

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// progPkg is one package found under the target tree.
type progPkg struct {
	path  string // import path (module-relative when a go.mod encloses the tree)
	dir   string // directory as given (keeps relative finding paths stable)
	name  string // package name from the first parsed file
	files []*ast.File
	decls []*ast.FuncDecl // body-bearing function decls, position order
	tpkg  *types.Package  // nil until checked
}

// Program is one loaded directory tree: every package under it parsed
// and type-checked, and every function interpreted with its callees'
// transitive summaries spliced in (callgraph.go). Findings and Shapes
// both read that one scan. A Program is never mutated after Load, so it
// may be shared; loading again re-reads the disk.
type Program struct {
	fset    *token.FileSet
	modRoot string // directory holding the enclosing go.mod ("" if none)
	modPath string // its module path
	targets []*progPkg
	byPath  map[string]*progPkg
	deps    map[string]*types.Package // out-of-tree packages, grown lazily by importPkg
	loading map[string]bool           // import paths currently being dep-checked (cycle guard)
	info    *types.Info
	facts   []*fnFacts // every target function, package then position order
}

// Load parses, type-checks and scans the package tree in dir.
func Load(dir string) (*Program, error) {
	st, err := os.Stat(dir)
	if err != nil {
		return nil, err
	}
	if !st.IsDir() {
		return nil, fmt.Errorf("staticlint: %s is not a directory", dir)
	}
	p := &Program{
		fset:    token.NewFileSet(),
		byPath:  map[string]*progPkg{},
		deps:    map[string]*types.Package{},
		loading: map[string]bool{},
		info: &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	p.findModule(dir)

	var dirs []string
	if err := collectGoDirs(dir, &dirs); err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	for _, d := range dirs {
		tp, err := p.parseTarget(d)
		if err != nil {
			return nil, err
		}
		if tp != nil {
			p.targets = append(p.targets, tp)
			p.byPath[tp.path] = tp
		}
	}
	// Check dependencies before dependents so intra-tree imports see
	// real (body-checked) packages rather than placeholders.
	for _, tp := range p.topoTargets() {
		p.check(tp)
	}
	p.facts = p.scan()
	return p, nil
}

// collectGoDirs gathers every directory under root that holds at least
// one non-test .go file, skipping vendor/testdata and hidden or
// underscore-prefixed directories (mirroring the go tool's walk rules).
func collectGoDirs(root string, out *[]string) error {
	ents, err := os.ReadDir(root)
	if err != nil {
		return err
	}
	hasGo := false
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() {
			if name == "vendor" || name == "testdata" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				continue
			}
			if err := collectGoDirs(filepath.Join(root, name), out); err != nil {
				return err
			}
			continue
		}
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			hasGo = true
		}
	}
	if hasGo {
		*out = append(*out, root)
	}
	return nil
}

// findModule locates the nearest enclosing go.mod and records its
// module path; without one, packages get synthetic import paths and
// only same-tree imports can resolve.
func (p *Program) findModule(dir string) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return
	}
	for d := abs; ; {
		if data, err := os.ReadFile(filepath.Join(d, "go.mod")); err == nil {
			p.modRoot = d
			p.modPath = modulePath(data)
			return
		}
		parent := filepath.Dir(d)
		if parent == d {
			return
		}
		d = parent
	}
}

func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		f := strings.Fields(line)
		if len(f) >= 2 && f[0] == "module" {
			return strings.Trim(f[1], `"`)
		}
	}
	return ""
}

// importPathOf maps a target directory to the import path other
// packages would use for it.
func (p *Program) importPathOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err == nil && p.modRoot != "" {
		if rel, err := filepath.Rel(p.modRoot, abs); err == nil && rel != ".." && !strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
			if rel == "." {
				return p.modPath
			}
			return p.modPath + "/" + filepath.ToSlash(rel)
		}
	}
	return filepath.ToSlash(dir)
}

// parseTarget parses one target directory into a progPkg (nil when the
// directory holds no usable files). Parse errors in target files are
// real errors.
func (p *Program) parseTarget(dir string) (*progPkg, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	tp := &progPkg{dir: dir, path: p.importPathOf(dir)}
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(p.fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("staticlint: %w", err)
		}
		if tp.name == "" {
			tp.name = f.Name.Name
		}
		if f.Name.Name != tp.name {
			continue // stray package (e.g. main alongside a library): first wins
		}
		tp.files = append(tp.files, f)
		for _, d := range f.Decls {
			// Declarations named like session methods are the ORM surface
			// itself (or an app's local stand-in for it), not app
			// transaction APIs: their bodies are never interpreted and
			// calls to them become events at the call site.
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil && !sessionMethods[fd.Name.Name] {
				tp.decls = append(tp.decls, fd)
			}
		}
	}
	if len(tp.files) == 0 {
		return nil, nil
	}
	sort.Slice(tp.decls, func(i, j int) bool { return tp.decls[i].Pos() < tp.decls[j].Pos() })
	return tp, nil
}

// topoTargets orders target packages dependencies-first via a DFS over
// intra-tree imports (deterministic: targets and their import lists are
// sorted). Import cycles — illegal Go — fall back to placeholder
// resolution for the back edge.
func (p *Program) topoTargets() []*progPkg {
	seen := map[*progPkg]bool{}
	order := make([]*progPkg, 0, len(p.targets))
	var visit func(tp *progPkg)
	visit = func(tp *progPkg) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		for _, imp := range targetImports(tp) {
			if dep, ok := p.byPath[imp]; ok {
				visit(dep)
			}
		}
		order = append(order, tp)
	}
	for _, tp := range p.targets {
		visit(tp)
	}
	return order
}

func targetImports(tp *progPkg) []string {
	set := map[string]bool{}
	for _, f := range tp.files {
		for _, imp := range f.Imports {
			if path := strings.Trim(imp.Path.Value, `"`); path != "" {
				set[path] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for path := range set {
		out = append(out, path)
	}
	sort.Strings(out)
	return out
}

// check type-checks one target package into the shared Info. Errors are
// swallowed: fixtures (and real trees mid-refactor) may not type-check,
// and every unresolved identifier just means the call-graph layer falls
// back to the name heuristic for that site.
func (p *Program) check(tp *progPkg) {
	conf := types.Config{
		Importer:    importerFunc(p.importPkg),
		Error:       func(error) {},
		FakeImportC: true,
	}
	pkg, _ := conf.Check(tp.path, p.fset, tp.files, p.info)
	tp.tpkg = pkg
}

// importerFunc keeps types.Importer's method off Program's exported API.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// importPkg is the loader's types.Importer. Target packages resolve to
// their checked form; module-internal paths load lazily with function
// bodies ignored; everything else gets an empty placeholder so the
// checker can keep going.
func (p *Program) importPkg(path string) (*types.Package, error) {
	if tp, ok := p.byPath[path]; ok && tp.tpkg != nil {
		return tp.tpkg, nil
	}
	if dep, ok := p.deps[path]; ok {
		return dep, nil
	}
	dep := p.loadDep(path)
	p.deps[path] = dep
	return dep, nil
}

func (p *Program) loadDep(path string) *types.Package {
	base := path
	if i := strings.LastIndex(base, "/"); i >= 0 {
		base = base[i+1:]
	}
	placeholder := func() *types.Package {
		pkg := types.NewPackage(path, base)
		pkg.MarkComplete()
		return pkg
	}
	if p.loading[path] || p.modPath == "" {
		return placeholder()
	}
	sub := ""
	switch {
	case path == p.modPath:
		sub = "."
	case strings.HasPrefix(path, p.modPath+"/"):
		sub = path[len(p.modPath)+1:]
	default:
		return placeholder() // stdlib or external module
	}
	dir := filepath.Join(p.modRoot, filepath.FromSlash(sub))
	ents, err := os.ReadDir(dir)
	if err != nil {
		return placeholder()
	}
	p.loading[path] = true
	defer delete(p.loading, path)
	var files []*ast.File
	name := ""
	for _, ent := range ents {
		n := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(p.fset, filepath.Join(dir, n), nil, parser.SkipObjectResolution)
		if err != nil {
			continue
		}
		if name == "" {
			name = f.Name.Name
		}
		if f.Name.Name != name {
			continue
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return placeholder()
	}
	conf := types.Config{
		Importer:         importerFunc(p.importPkg),
		Error:            func(error) {},
		FakeImportC:      true,
		IgnoreFuncBodies: true, // deps only contribute their API surface
	}
	pkg, _ := conf.Check(path, p.fset, files, nil)
	if pkg == nil {
		return placeholder()
	}
	pkg.MarkComplete()
	return pkg
}
