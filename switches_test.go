package customfit_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// packageFiles parses the non-test sources of internal/pkg.
func packageFiles(t *testing.T, fset *token.FileSet, pkg string) []*ast.File {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("internal/%s: no sources (%v)", pkg, err)
	}
	var files []*ast.File
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

// TestNoCompilerSwitches holds the packages that decide a schedule and
// its measurement to having no process-wide switch: an exported
// package-level variable of scalar type (bool, integer, float or
// string) is a setting that no cache key sees and that every
// concurrent compile shares. A backend choice is a field of
// sched.Variant, carried on dse.EvalConfig. Tables such as
// dse.UnrollFactors are out of scope: KernelClass's unroll= text keys
// the sweep, and TestConstantsPinned holds the backend's tables.
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
	for _, pkg := range []string{"opt", "sched", "dse", "machine", "ddg", "regalloc"} {
		for _, f := range packageFiles(t, fset, pkg) {
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

// constantsPin is where TestConstantsPinned keeps what it pins.
const constantsPin = "testdata/constants.txt"

// TestConstantsPinned guards the constants that may decide a schedule
// or the prepared IR and are in no sched.Variant (ROADMAP item 12):
// every package-level constant, and every variable table initialised by
// a non-empty composite literal, of opt, sched, machine, ddg, regalloc
// and cc, as its source prints it, pinned in testdata/constants.txt
// beside sched.BackendVersion and dse.prepPipelineVersion. A warm cache
// keys its sweeps by those two versions, not by these values, so a value
// changed under the same versions would be answered with the old
// sweeps. Both versions are read from source. The cost and cycle-time
// models (unpinned) are priced outside the backend: KernelClass leaves
// them out, so retuning them invalidates no sweep. Re-pin, after
// bumping the version the change needs, if any, with
//
//	go test . -run TestConstantsPinned -update
func TestConstantsPinned(t *testing.T) {
	fset := token.NewFileSet()
	text := func(n ast.Node) string {
		var b bytes.Buffer
		if err := printer.Fprint(&b, fset, n); err != nil {
			t.Fatal(err)
		}
		return strings.Join(strings.Fields(b.String()), " ")
	}
	// consts lists pkg's pinned declarations as "pkg.Name = value" and
	// finds its version constants.
	versions := map[string]string{}
	unpriced := map[string]bool{"machine.DefaultCostModel": true, "machine.DefaultCycleModel": true,
		"machine.Table6": true, "machine.Table7": true}
	consts := func(pkg string) []string {
		var out []string
		for _, f := range packageFiles(t, fset, pkg) {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.CONST && gd.Tok != token.VAR {
					continue
				}
				// A constant spec with no values repeats the last one's
				// type and values at its own iota.
				var typ ast.Expr
				var values []ast.Expr
				for k, spec := range gd.Specs {
					vs := spec.(*ast.ValueSpec)
					if gd.Tok == token.CONST && len(vs.Values) > 0 {
						typ, values = vs.Type, vs.Values
					}
					for i, name := range vs.Names {
						if name.Name == "_" {
							continue
						}
						qual := pkg + "." + name.Name
						if gd.Tok == token.VAR {
							if i >= len(vs.Values) {
								continue
							}
							v := vs.Values[i]
							if u, ok := v.(*ast.UnaryExpr); ok && u.Op == token.AND {
								v = u.X
							}
							if cl, ok := v.(*ast.CompositeLit); ok && len(cl.Elts) > 0 && !unpriced[qual] {
								out = append(out, qual+" = "+text(vs.Values[i]))
							}
							continue
						}
						val := text(values[i])
						if qual == "sched.BackendVersion" || qual == "dse.prepPipelineVersion" {
							versions[qual] = val
							continue
						}
						if typ != nil {
							val = text(typ) + " = " + val
						} else {
							val = "= " + val
						}
						if strings.Contains(val, "iota") {
							val += fmt.Sprintf(" (iota %d)", k)
						}
						out = append(out, qual+" "+val)
					}
				}
			}
		}
		slices.Sort(out)
		return out
	}
	var got []string
	for _, pkg := range []string{"opt", "sched", "machine", "ddg", "regalloc", "cc"} {
		got = append(got, consts(pkg)...)
	}
	consts("dse") // for prepPipelineVersion alone
	header := []string{
		"sched.BackendVersion " + versions["sched.BackendVersion"],
		"dse.prepPipelineVersion " + versions["dse.prepPipelineVersion"],
	}
	if *update {
		pin := strings.Join(append(header, got...), "\n") + "\n"
		if err := os.MkdirAll(filepath.Dir(constantsPin), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(constantsPin, []byte(pin), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(constantsPin)
	if err != nil {
		t.Fatal(err)
	}
	pinned := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(pinned) < len(header) {
		t.Fatalf("%s: no version header", constantsPin)
	}
	const repin = "re-pin with go test . -run TestConstantsPinned -update"
	if !slices.Equal(pinned[:len(header)], header) {
		t.Fatalf("versions are now %s, pinned %s: %s", strings.Join(header, ", "),
			strings.Join(pinned[:len(header)], ", "), repin)
	}
	// name is a pinned line's qualified name.
	name := func(line string) string { return strings.Fields(line)[0] }
	was := map[string]string{}
	for _, line := range pinned[len(header):] {
		was[name(line)] = line
	}
	var moved []string
	for _, line := range got {
		switch old, ok := was[name(line)]; {
		case !ok:
			moved = append(moved, "added "+line)
		case old != line:
			moved = append(moved, "changed "+old+" to "+line)
		}
		delete(was, name(line))
	}
	for _, line := range was {
		moved = append(moved, "removed "+line)
	}
	if len(moved) > 0 {
		slices.Sort(moved)
		t.Errorf("constants moved while %s: a change that moves a schedule bumps "+
			"sched.BackendVersion, one that moves the prepared IR (frontend, opt passes, unrolling) "+
			"bumps dse.prepPipelineVersion, and one that moves neither (a rename, a diagnostic's "+
			"spelling) bumps no version; then %s\n%s", strings.Join(header, ", "), repin, strings.Join(moved, "\n"))
	}
}
