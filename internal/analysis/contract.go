package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// ContractConfig parameterizes the scheme-contract analyzer. The zero
// fields have no defaults: cmd/dbivet wires the repo's actual policy (see
// DefaultContract) and the tests wire their fixtures.
type ContractConfig struct {
	// PackagePath is the import path of the scheme package, e.g.
	// "dbiopt/internal/dbi".
	PackagePath string
	// Encoder and MaskEncoder are the names, within the package, of the
	// scheme interface and its bit-parallel fast-path interface.
	Encoder     string
	MaskEncoder string
	// RegisterFunc is the package-level function whose call sites register
	// schemes ("Register"); a scheme type is "registered" when some
	// Register call's factory argument constructs it.
	RegisterFunc string
	// GoldenFile and FuzzFile are the file names (within the package
	// directory) of the golden tests and the mask-equivalence fuzz target;
	// every scheme must be pinned by both.
	GoldenFile string
	FuzzFile   string
	// FuzzFunc is the fuzz target; when its body iterates the registry
	// (calls RegistryIter), every registered scheme counts as fuzz-covered.
	FuzzFunc     string
	RegistryIter string
	// KernelFuzzFile and KernelFuzzFunc name the kernel-equivalence fuzz
	// target — the compiled-kernel analog of FuzzFunc. Every scheme must be
	// pinned kernel-vs-EncodeInto, either by direct reference in the file or
	// through a registry sweep in the target's body. Empty KernelFuzzFunc
	// disables the clause (fixtures predating the kernel surface).
	KernelFuzzFile string
	KernelFuzzFunc string
}

// DefaultContract is the repo's scheme contract: every Encoder in
// internal/dbi implements MaskEncoder, registers itself, is pinned by
// golden_test.go and FuzzMaskEquivalence, and has its compiled Kernel pinned
// against the EncodeInto oracle by FuzzKernelEquivalence. There are no
// exceptions.
var DefaultContract = ContractConfig{
	PackagePath:    "dbiopt/internal/dbi",
	Encoder:        "Encoder",
	MaskEncoder:    "MaskEncoder",
	RegisterFunc:   "Register",
	GoldenFile:     "golden_test.go",
	FuzzFile:       "fuzz_test.go",
	FuzzFunc:       "FuzzMaskEquivalence",
	RegistryIter:   "Names",
	KernelFuzzFile: "kernel_test.go",
	KernelFuzzFunc: "FuzzKernelEquivalence",
}

// Contract type-checks the scheme package and enforces the scheme
// contract on every Encoder implementation found in it.
func Contract(t *Tree, cfg ContractConfig) ([]Diagnostic, error) {
	l, err := newLoader(t)
	if err != nil {
		return nil, err
	}
	pkg, err := l.ImportFrom(cfg.PackagePath, t.Root, 0)
	if err != nil {
		return nil, err
	}
	rel := "."
	if cfg.PackagePath != l.module {
		rel = strings.TrimPrefix(cfg.PackagePath, l.module+"/")
	}
	d := t.dir(rel)
	if d == nil {
		return nil, fmt.Errorf("analysis: package %s (dir %s) not in the analyzed tree", cfg.PackagePath, rel)
	}

	scope := pkg.Scope()
	encoder, err := lookupInterface(scope, cfg.Encoder, cfg.PackagePath)
	if err != nil {
		return nil, err
	}
	maskEncoder, err := lookupInterface(scope, cfg.MaskEncoder, cfg.PackagePath)
	if err != nil {
		return nil, err
	}

	// The scheme set: every non-interface named type whose value or
	// pointer method set satisfies the Encoder interface.
	var schemes []*types.TypeName
	for _, name := range scope.Names() {
		obj, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || obj.IsAlias() || types.IsInterface(obj.Type()) {
			continue
		}
		if implements(obj.Type(), encoder) {
			schemes = append(schemes, obj)
		}
	}

	// Constructor map: package-level functions whose results include a
	// scheme type, so NewGreedy credits Greedy and OptFixed credits Opt
	// wherever they are called.
	ctorsOf := make(map[*types.TypeName][]string)
	for _, name := range scope.Names() {
		fn, ok := scope.Lookup(name).(*types.Func)
		if !ok {
			continue
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() != nil {
			continue
		}
		for i := 0; i < sig.Results().Len(); i++ {
			if tn := namedTypeName(sig.Results().At(i).Type()); tn != nil {
				ctorsOf[tn] = append(ctorsOf[tn], name)
			}
		}
	}

	registered := registeredSchemes(t, d, l, cfg, schemes)
	goldenRefs := fileTypeRefs(d, cfg.GoldenFile, schemes, ctorsOf)
	fuzzRefs := fileTypeRefs(d, cfg.FuzzFile, schemes, ctorsOf)
	fuzzIterates := fuzzIteratesRegistry(d, cfg.FuzzFile, cfg.FuzzFunc, cfg.RegistryIter)
	var kernelRefs map[*types.TypeName]bool
	kernelIterates := false
	if cfg.KernelFuzzFunc != "" {
		kernelRefs = fileTypeRefs(d, cfg.KernelFuzzFile, schemes, ctorsOf)
		kernelIterates = fuzzIteratesRegistry(d, cfg.KernelFuzzFile, cfg.KernelFuzzFunc, cfg.RegistryIter)
	}

	var diags []Diagnostic
	for _, s := range schemes {
		pos := t.Fset.Position(s.Pos())
		file, line := relOrSame(t, pos.Filename), pos.Line
		if !implements(s.Type(), maskEncoder) {
			diags = append(diags, Diagnostic{
				File: file, Line: line, Analyzer: "contract",
				Message: fmt.Sprintf("%s implements %s but not %s: every scheme needs the bit-parallel fast path", s.Name(), cfg.Encoder, cfg.MaskEncoder),
			})
		}
		if !registered[s] {
			diags = append(diags, Diagnostic{
				File: file, Line: line, Analyzer: "contract",
				Message: fmt.Sprintf("%s is not constructed by any %s factory: schemes must be registered to be reachable by name", s.Name(), cfg.RegisterFunc),
			})
		}
		if !goldenRefs[s] {
			diags = append(diags, Diagnostic{
				File: file, Line: line, Analyzer: "contract",
				Message: fmt.Sprintf("%s is not referenced by %s: every scheme needs a pinned golden outcome", s.Name(), cfg.GoldenFile),
			})
		}
		if !fuzzRefs[s] && !(fuzzIterates && registered[s]) {
			diags = append(diags, Diagnostic{
				File: file, Line: line, Analyzer: "contract",
				Message: fmt.Sprintf("%s is not covered by %s in %s: reference it there or register it so the registry sweep reaches it", s.Name(), cfg.FuzzFunc, cfg.FuzzFile),
			})
		}
		if cfg.KernelFuzzFunc != "" && !kernelRefs[s] && !(kernelIterates && registered[s]) {
			diags = append(diags, Diagnostic{
				File: file, Line: line, Analyzer: "contract",
				Message: fmt.Sprintf("%s is not covered by %s in %s: every scheme's compiled kernel must be pinned against its EncodeInto oracle (reference it there or register it so the registry sweep reaches it)", s.Name(), cfg.KernelFuzzFunc, cfg.KernelFuzzFile),
			})
		}
	}
	sortDiagnostics(diags)
	return diags, nil
}

// lookupInterface resolves a named interface in the package scope.
func lookupInterface(scope *types.Scope, name, pkgPath string) (*types.Interface, error) {
	obj := scope.Lookup(name)
	if obj == nil {
		return nil, fmt.Errorf("analysis: interface %s not found in %s", name, pkgPath)
	}
	iface, ok := obj.Type().Underlying().(*types.Interface)
	if !ok {
		return nil, fmt.Errorf("analysis: %s.%s is not an interface", pkgPath, name)
	}
	return iface, nil
}

// implements reports whether T or *T satisfies the interface.
func implements(T types.Type, iface *types.Interface) bool {
	return types.Implements(T, iface) || types.Implements(types.NewPointer(T), iface)
}

// namedTypeName unwraps pointers and returns the type's *TypeName for
// named, non-interface types; nil otherwise.
func namedTypeName(T types.Type) *types.TypeName {
	if p, ok := T.(*types.Pointer); ok {
		T = p.Elem()
	}
	if n, ok := T.(*types.Named); ok && !types.IsInterface(T) {
		return n.Obj()
	}
	return nil
}

// registeredSchemes finds every Register call in the package's non-test
// files and credits the scheme types its factory argument constructs —
// directly (composite literals, conversions) or through one constructor
// call (NewOpt, QuantizeWeights, ...).
func registeredSchemes(t *Tree, d *Dir, l *loader, cfg ContractConfig, schemes []*types.TypeName) map[*types.TypeName]bool {
	schemeSet := make(map[*types.TypeName]bool, len(schemes))
	for _, s := range schemes {
		schemeSet[s] = true
	}
	credit := make(map[*types.TypeName]bool)
	for _, f := range d.Files {
		if f.Test || !buildable(f) {
			continue
		}
		ast.Inspect(f.Ast, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 2 {
				return true
			}
			if calleeName(call) != cfg.RegisterFunc {
				return true
			}
			factory := call.Args[len(call.Args)-1]
			ast.Inspect(factory, func(fn ast.Node) bool {
				expr, ok := fn.(ast.Expr)
				if !ok {
					return true
				}
				// Direct construction: any expression whose static type is
				// a scheme type.
				if tv, ok := l.info.Types[expr]; ok {
					if tn := namedTypeName(tv.Type); tn != nil && schemeSet[tn] {
						credit[tn] = true
					}
				}
				// One level of indirection: calls to constructors whose
				// results include a scheme type.
				if id, ok := expr.(*ast.Ident); ok {
					if fobj, ok := l.info.Uses[id].(*types.Func); ok {
						if sig, ok := fobj.Type().(*types.Signature); ok {
							for i := 0; i < sig.Results().Len(); i++ {
								if tn := namedTypeName(sig.Results().At(i).Type()); tn != nil && schemeSet[tn] {
									credit[tn] = true
								}
							}
						}
					}
				}
				return true
			})
			return true
		})
	}
	return credit
}

// calleeName returns the identifier a call invokes (unwrapping one
// selector), or "".
func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// fileTypeRefs reports which scheme types the named file references, by
// type name or by the name of one of the type's constructors.
func fileTypeRefs(d *Dir, fileName string, schemes []*types.TypeName, ctorsOf map[*types.TypeName][]string) map[*types.TypeName]bool {
	refs := make(map[*types.TypeName]bool)
	var f *File
	for _, c := range d.Files {
		if strings.HasSuffix(c.Rel, "/"+fileName) || c.Rel == fileName {
			f = c
			break
		}
	}
	if f == nil {
		return refs
	}
	idents := make(map[string]bool)
	ast.Inspect(f.Ast, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			idents[id.Name] = true
		}
		return true
	})
	for _, s := range schemes {
		if idents[s.Name()] {
			refs[s] = true
			continue
		}
		for _, ctor := range ctorsOf[s] {
			if idents[ctor] {
				refs[s] = true
				break
			}
		}
	}
	return refs
}

// fuzzIteratesRegistry reports whether the named fuzz target's body calls
// the registry iterator, which makes the fuzz sweep cover every registered
// scheme automatically.
func fuzzIteratesRegistry(d *Dir, fileName, funcName, iter string) bool {
	for _, f := range d.Files {
		if !(strings.HasSuffix(f.Rel, "/"+fileName) || f.Rel == fileName) {
			continue
		}
		for _, decl := range f.Ast.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != funcName || fd.Body == nil {
				continue
			}
			found := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && calleeName(call) == iter {
					found = true
				}
				return !found
			})
			return found
		}
	}
	return false
}

// relOrSame maps an absolute position filename back to a root-relative
// slash path when the file lies under the root.
func relOrSame(t *Tree, path string) string {
	rel, err := filepath.Rel(t.Root, path)
	if err != nil || strings.HasPrefix(rel, "..") {
		return path
	}
	return filepath.ToSlash(rel)
}
