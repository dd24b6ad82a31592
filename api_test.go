package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestOneNamePerOperation keeps each analysis operation under one exported
// name: no receiver type (or package, for plain functions) under internal/
// may export both X and XContext. The Context form is the one to keep;
// callers without a context pass context.Background().
func TestOneNamePerOperation(t *testing.T) {
	// owner is "dir" for package-level functions and "dir.Type" for methods.
	names := map[string]map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			owner := filepath.Dir(path)
			if fn.Recv != nil && len(fn.Recv.List) == 1 {
				owner += "." + receiverType(fn.Recv.List[0].Type)
			}
			if names[owner] == nil {
				names[owner] = map[string]bool{}
			}
			names[owner][fn.Name.Name] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var twins []string
	for owner, set := range names {
		for name := range set {
			if base, ok := strings.CutSuffix(name, "Context"); ok && set[base] {
				twins = append(twins, owner+": "+base+" and "+name)
			}
		}
	}
	sort.Strings(twins)
	for _, tw := range twins {
		t.Errorf("%s: keep only the Context form", tw)
	}
}

// receiverType names a method's receiver type without its pointer.
func receiverType(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// TestNoTestOnlyExports keeps code that only tests use out of the production
// packages: every exported function or method under internal/ must be
// referenced by a non-test file somewhere in the repository, the separate
// benchmark module included. A package function counts as referenced
// through pkg.Name from another package or through a bare Name in its own
// directory; a method, through a selector of its name anywhere. Interface
// methods are called without naming them, and the two oracle packages
// exist for tests alone.
func TestNoTestOnlyExports(t *testing.T) {
	interfaceMethods := map[string]bool{
		"Error": true, "Unwrap": true, "String": true, "MarshalText": true, "UnmarshalText": true,
		"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true, "ServeHTTP": true,
	}
	oracles := map[string]bool{"internal/sim": true, "internal/expm": true}

	type export struct {
		dir, name, pos string
		recv           string // receiver type of a method
		method         bool
	}
	var exports []export
	funcRefs := map[string]bool{} // "dir.Name" of each package-level name referenced
	selRefs := map[string]bool{}  // every name used after a selector dot
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
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
		dir := filepath.ToSlash(filepath.Dir(path))
		imports := map[string]string{} // local name -> directory of a repro package
		for _, imp := range f.Imports {
			rel, ok := strings.CutPrefix(strings.Trim(imp.Path.Value, `"`), "repro/")
			if !ok {
				continue
			}
			name := filepath.Base(rel)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = rel
		}
		declared := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fn.Name] = true
			if !fn.Name.IsExported() || !strings.HasPrefix(dir, "internal/") || oracles[dir] {
				continue
			}
			e := export{dir: dir, name: fn.Name.Name, pos: fset.Position(fn.Pos()).String(), method: fn.Recv != nil}
			if e.method && len(fn.Recv.List) == 1 {
				e.recv = receiverType(fn.Recv.List[0].Type)
			}
			exports = append(exports, e)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				selRefs[n.Sel.Name] = true
				if id, ok := n.X.(*ast.Ident); ok && imports[id.Name] != "" {
					funcRefs[imports[id.Name]+"."+n.Sel.Name] = true
				}
			case *ast.Ident:
				if !declared[n] {
					funcRefs[dir+"."+n.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range exports {
		if e.method && (selRefs[e.name] || interfaceMethods[e.name]) || !e.method && funcRefs[e.dir+"."+e.name] {
			continue
		}
		name := e.name
		if e.method {
			name = "(" + e.recv + ")." + name
		}
		t.Errorf("%s: %s.%s has no non-test caller; delete it or move it into a _test.go helper", e.pos, filepath.Base(e.dir), name)
	}
}
