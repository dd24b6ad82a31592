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
