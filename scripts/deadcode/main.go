// Command deadcode is the gate on dead generality: code that nothing
// runs, or that runs one way only. It fails on two kinds of finding:
//
//   - an exported package-level name under internal/, or an exported
//     method there, that no non-test file of the module (or of a module
//     nested in it, such as bench/) references;
//   - a parameter of an unexported function, in the root package or under
//     internal/, cmd/ or examples/, to which every non-test call site
//     passes the same constant. A function taken as a value, the variadic
//     parameter, and a method that satisfies an interface are skipped.
//     scripts/ is left out (its tests drive its functions with other
//     arguments), and so is a nested module.
//
// A method counts as used when its type satisfies an interface the
// modules declare or use (error, fmt.Stringer and http.RoundTripper among
// them), because a call through the interface names no concrete method.
// Findings kept on purpose are in allow, one reason each; an entry that
// matches no finding is itself a finding, so the list cannot go stale.
//
// The checker is standard library only: go/build picks each package's
// non-test files under the default build tags, go/parser reads them and
// go/types checks them, the standard library from source.
//
//	go run ./scripts/deadcode    # from the repo root; exit 1 on a finding
package main

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// allow is the list of findings kept on purpose. A key is a package path
// relative to the module root, then ".Name" or ".Type.Method".
var allow = map[string]string{
	"internal/enclave.WithEPCLimit":     "the EPC-pressure knob ROADMAP item 7 measures the paging cost with",
	"internal/textutil.Termer.TermSet":  "one of the term-set tools ROADMAP item 1(b) names for the filter kernel",
	"internal/textutil.TermSet.Common":  "one of the term-set tools ROADMAP item 1(b) names for the filter kernel",
	"internal/textutil.Tokenize":        "the reference tokenizer the kernel's differential tests compare against",
	"internal/broker.Broker.KillConn":   "fault injection the fleet tests drive across packages",
	"internal/broker.Broker.Reconnects": "fault injection the fleet tests drive across packages",
	"internal/raceflag.Enabled":         "a test helper by design: tests read Enabled to skip what cannot hold under -race",
}

func main() {
	n, err := check(".", allow, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(2)
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "deadcode: %d finding(s); delete the code, or allow it with a reason in scripts/deadcode\n", n)
		os.Exit(1)
	}
}

// pkg is one type-checked package of non-test files.
type pkg struct {
	path     string
	rel      string // the directory, relative to its module's root
	internal bool   // under the root module's internal/: rule 1 reports on it
	params   bool   // the root package, or under internal/, cmd/ or examples/: rule 2 does
	files    []*ast.File
	types    *types.Package
	info     *types.Info
	checking bool
}

// loader type-checks the packages of the root module and of the modules
// nested in it; every other import is the standard library's, from source.
type loader struct {
	fset *token.FileSet
	pkgs map[string]*pkg
	std  types.Importer
}

// check loads the module at root, writes one "file:line: name: reason"
// line per finding to w, and returns how many it wrote.
func check(root string, allow map[string]string, w io.Writer) (int, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return 0, err
	}
	// cgo would need a C toolchain to type-check packages such as net; their
	// pure-Go files declare the same API, which is all the checker reads.
	build.Default.CgoEnabled = false
	l := &loader{fset: token.NewFileSet(), pkgs: map[string]*pkg{}}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	if err := l.scan(root); err != nil {
		return 0, err
	}
	var all []*pkg
	for _, p := range l.pkgs {
		all = append(all, p)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].path < all[j].path })
	for _, p := range all {
		if err := l.check(p); err != nil {
			return 0, err
		}
	}

	a := analyze(l, all)
	var out []finding
	out = append(out, a.orphans()...)
	out = append(out, a.constParams()...)

	n := 0
	seen := map[string]bool{}
	sort.Slice(out, func(i, j int) bool {
		if out[i].pos.Filename != out[j].pos.Filename {
			return out[i].pos.Filename < out[j].pos.Filename
		}
		return out[i].pos.Offset < out[j].pos.Offset
	})
	for _, f := range out {
		if _, ok := allow[f.key]; ok {
			seen[f.key] = true
			continue
		}
		rel, _ := filepath.Rel(root, f.pos.Filename)
		fmt.Fprintf(w, "%s:%d: %s: %s\n", filepath.ToSlash(rel), f.pos.Line, f.name, f.reason)
		n++
	}
	var stale []string
	for key := range allow {
		if !seen[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		fmt.Fprintf(w, "scripts/deadcode/main.go:1: %s: allow-list entry matches no finding\n", key)
		n++
	}
	return n, nil
}

// scan finds the packages under root (skipping testdata, vendor and dot
// directories). A directory with its own go.mod starts a nested module.
func (l *loader) scan(root string) error {
	type module struct{ path, dir string }
	var mods []module
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if mod, err := modulePath(filepath.Join(path, "go.mod")); err == nil {
			mods = append(mods, module{mod, path})
		} else if path == root {
			return err
		}
		m := mods[0]
		for _, c := range mods {
			if len(c.dir) > len(m.dir) && (path == c.dir || strings.HasPrefix(path, c.dir+string(filepath.Separator))) {
				m = c
			}
		}
		bp, err := build.Default.ImportDir(path, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(m.dir, path)
		rel = filepath.ToSlash(rel)
		ip := m.path
		if rel != "." {
			ip += "/" + rel
		}
		p := &pkg{path: ip, rel: rel}
		if m.dir == root {
			top, _, _ := strings.Cut(rel, "/")
			p.internal = top == "internal"
			p.params = rel == "." || top == "internal" || top == "cmd" || top == "examples"
		}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(l.fset, filepath.Join(path, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		l.pkgs[ip] = p
		return nil
	})
	return err
}

// modulePath reads the module line of a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for line := range strings.Lines(string(data)) {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// Import resolves an import: a scanned package is type-checked here,
// anything else is the standard library's.
func (l *loader) Import(path string) (*types.Package, error) {
	p, ok := l.pkgs[path]
	if !ok {
		return l.std.Import(path)
	}
	if err := l.check(p); err != nil {
		return nil, err
	}
	return p.types, nil
}

func (l *loader) check(p *pkg) error {
	if p.types != nil {
		return nil
	}
	if p.checking {
		return fmt.Errorf("%s: import cycle", p.path)
	}
	p.checking = true
	p.info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	tp, err := conf.Check(p.path, l.fset, p.files, p.info)
	if err != nil {
		return fmt.Errorf("type-check %s: %w", p.path, err)
	}
	p.types = tp
	return nil
}

// finding is one report: key is the allow-list key it would match.
type finding struct {
	pos          token.Position
	key          string
	name, reason string
}

// analysis holds what every package's non-test files use.
type analysis struct {
	l    *loader
	pkgs []*pkg
	used map[types.Object]bool
	// viaIface holds the methods that satisfy an interface the modules
	// declare or use: a call through the interface names none of them.
	viaIface map[types.Object]bool
}

func analyze(l *loader, pkgs []*pkg) *analysis {
	a := &analysis{l: l, pkgs: pkgs, used: map[types.Object]bool{}, viaIface: map[types.Object]bool{}}
	ifaces := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > n.TypeArgs().Len() {
			return // uninstantiated: Implements is undefined on it
		}
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
			ifaces[it] = true
		}
	}
	var collect func(t types.Type)
	collect = func(t types.Type) {
		switch t := t.(type) {
		case *types.Pointer:
			collect(t.Elem())
		case *types.Slice:
			collect(t.Elem())
		case *types.Array:
			collect(t.Elem())
		case *types.Map:
			collect(t.Key())
			collect(t.Elem())
		case *types.Chan:
			collect(t.Elem())
		case *types.Signature:
			for i := 0; i < t.Params().Len(); i++ {
				collect(t.Params().At(i).Type())
			}
			for i := 0; i < t.Results().Len(); i++ {
				collect(t.Results().At(i).Type())
			}
		default:
			addIface(t)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	// fmt finds a String method by a type assertion no module code writes.
	if fmtPkg, err := l.std.Import("fmt"); err == nil {
		addIface(fmtPkg.Scope().Lookup("Stringer").Type())
	}
	for _, p := range pkgs {
		for _, obj := range p.info.Uses {
			a.used[origin(obj)] = true
			collect(obj.Type())
		}
		// Types holds type expressions too: a declared interface's literal.
		for _, tv := range p.info.Types {
			if tv.Type != nil {
				collect(tv.Type)
			}
		}
	}
	for _, p := range pkgs {
		if !p.params { // every package either rule reports on (internal/ is among them)
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok || n.TypeParams().Len() > 0 || types.IsInterface(n) {
				continue
			}
			ptr := types.NewPointer(n)
			for it := range ifaces {
				if !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					if obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name()); obj != nil {
						a.viaIface[origin(obj)] = true
					}
				}
			}
		}
	}
	return a
}

// origin maps an instantiated function or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// orphans reports the exports under internal/ that no non-test file
// references.
func (a *analysis) orphans() []finding {
	var out []finding
	report := func(obj types.Object, key, name string) {
		if a.used[obj] || a.viaIface[obj] {
			return
		}
		out = append(out, finding{a.l.fset.Position(obj.Pos()), key, name, "exported, referenced by no non-test file"})
	}
	for _, p := range a.pkgs {
		if !p.internal {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				report(obj, p.rel+"."+name, name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < n.NumMethods(); i++ {
				if m := n.Method(i); m.Exported() {
					report(m, p.rel+"."+name+"."+m.Name(), name+"."+m.Name())
				}
			}
		}
	}
	return out
}

// callSites is every direct call of one unexported function.
type callSites struct {
	calls []*ast.CallExpr
	info  *types.Info
}

// constParams reports the parameters of unexported functions in the
// packages rule 2 covers to which every call site passes the same constant.
func (a *analysis) constParams() []finding {
	funcs := map[types.Object]*callSites{}
	for _, p := range a.pkgs {
		if !p.params {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.IsExported() || fd.Name.Name == "init" || fd.Name.Name == "main" {
					continue
				}
				obj := p.info.Defs[fd.Name]
				if obj != nil && !a.viaIface[obj] {
					funcs[obj] = &callSites{info: p.info}
				}
			}
		}
	}
	// A reference that is not the callee of a call takes the function as a
	// value: its parameters then come from calls the checker cannot see.
	asValue := map[types.Object]bool{}
	for _, p := range a.pkgs {
		callee := map[*ast.Ident]bool{}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				id := calleeIdent(call.Fun)
				if id == nil {
					return true
				}
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					if s := p.info.Selections[sel]; s != nil && s.Kind() == types.MethodExpr {
						return true // T.m(recv, ...): arguments shifted by one
					}
				}
				if cs := funcs[origin(p.info.Uses[id])]; cs != nil {
					callee[id] = true
					cs.calls = append(cs.calls, call)
				}
				return true
			})
		}
		for id, obj := range p.info.Uses {
			if obj = origin(obj); funcs[obj] != nil && !callee[id] {
				asValue[obj] = true
			}
		}
	}

	var out []finding
	for obj, cs := range funcs {
		if asValue[obj] || len(cs.calls) == 0 {
			continue
		}
		sig := obj.Type().(*types.Signature)
		n := sig.Params().Len()
		if sig.Variadic() {
			n--
		}
		for i := 0; i < n; i++ {
			val, ok := sameConstant(cs, i)
			if !ok {
				continue
			}
			name := obj.Name()
			if recv := sig.Recv(); recv != nil {
				name = recvName(recv.Type()) + "." + name
			}
			param := sig.Params().At(i)
			out = append(out, finding{a.l.fset.Position(param.Pos()), "", name,
				fmt.Sprintf("parameter %s is %s at every call site (%d)", param.Name(), val, len(cs.calls))})
		}
	}
	return out
}

// sameConstant reports the constant every call passes as argument i, if
// there is one.
func sameConstant(cs *callSites, i int) (string, bool) {
	var first types.TypeAndValue
	for k, call := range cs.calls {
		if i >= len(call.Args) {
			return "", false // one multi-value argument spread over the parameters
		}
		tv := cs.info.Types[call.Args[i]]
		if tv.Value == nil && !tv.IsNil() {
			return "", false
		}
		if k == 0 {
			first = tv
			continue
		}
		if tv.IsNil() != first.IsNil() || (tv.Value != nil && (tv.Value.Kind() != first.Value.Kind() ||
			!constant.Compare(tv.Value, token.EQL, first.Value))) {
			return "", false
		}
	}
	if first.IsNil() {
		return "nil", true
	}
	return first.Value.ExactString(), true
}

// calleeIdent is the identifier naming a call's function: f, x.f, f[T].
func calleeIdent(fun ast.Expr) *ast.Ident {
	switch e := ast.Unparen(fun).(type) {
	case *ast.Ident:
		return e
	case *ast.SelectorExpr:
		return e.Sel
	case *ast.IndexExpr:
		return calleeIdent(e.X)
	case *ast.IndexListExpr:
		return calleeIdent(e.X)
	}
	return nil
}

// recvName is the name of a method's receiver type, T for T and *T.
func recvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Obj().Name()
}
