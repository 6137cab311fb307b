package customfit_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoCompilerSwitches holds the packages that decide a schedule and
// its measurement to having no process-wide switch: an exported
// package-level variable of scalar type (bool, integer, float or
// string) is a setting that no cache key sees and that every
// concurrent compile shares. A backend choice is a field of
// sched.Variant, carried on dse.EvalConfig. Tables such as
// dse.UnrollFactors are out of scope.
func TestNoCompilerSwitches(t *testing.T) {
	scalar := map[string]bool{"bool": true, "string": true, "byte": true, "rune": true,
		"int": true, "int8": true, "int16": true, "int32": true, "int64": true,
		"uint": true, "uint8": true, "uint16": true, "uint32": true, "uint64": true, "uintptr": true,
		"float32": true, "float64": true}
	// isScalar reports whether an untyped variable's initial value is a
	// scalar: a literal, true or false, or a negated literal.
	var isScalar func(ast.Expr) bool
	isScalar = func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.BasicLit:
			return e.Kind != token.IMAG
		case *ast.Ident:
			return e.Name == "true" || e.Name == "false"
		case *ast.UnaryExpr:
			return isScalar(e.X)
		case *ast.ParenExpr:
			return isScalar(e.X)
		}
		return false
	}
	var found []string
	fset := token.NewFileSet()
	for _, pkg := range []string{"opt", "sched", "dse", "machine"} {
		paths, err := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("internal/%s: no sources (%v)", pkg, err)
		}
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					vs := spec.(*ast.ValueSpec)
					for i, name := range vs.Names {
						if !name.IsExported() {
							continue
						}
						typ, ok := vs.Type.(*ast.Ident)
						if ok && scalar[typ.Name] || vs.Type == nil && i < len(vs.Values) && isScalar(vs.Values[i]) {
							found = append(found, pkg+"."+name.Name)
						}
					}
				}
			}
		}
	}
	if len(found) > 0 {
		t.Errorf("process-wide switches: %s", strings.Join(found, ", "))
	}
}
