package panda

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The knob matrix (ROADMAP 6b): every exported configuration field and
// every command-line flag is a configuration tier-1 has to cover. A
// field must be given a non-default value somewhere outside the file
// that declares it — product code, a test, an example, the benchmark —
// and a flag must be passed to its binary by a test, scripts/, the
// Makefile or ci.yml; one that is set nowhere is either a constant in
// disguise or an untested arm, and goes. The walk is syntactic (go/ast,
// no type checker): a field is set by a keyed composite literal that
// names the struct's type, or by an assignment to a selector ending in
// the field's name where only one audited struct in sight has it.

// knobStructs are the audited configuration structs, by package name.
var knobStructs = map[string][]string{
	"panda": {"Config", "DaemonConfig", "Tuning", "SessionConfig", "IONodeConfig"},
	"core":  {"Config", "SchedConfig", "RetryPolicy"},
}

// knobAllow lists knobs kept although nothing sets them, each with its
// reason. Empty: everything declared is exercised.
var knobAllow = map[string]string{}

// auditedStruct returns "pkg.Type" when the type expression names an
// audited struct (unqualified names belong to filePkg), else "".
func auditedStruct(typ ast.Expr, filePkg string) string {
	pkg, name := filePkg, ""
	switch tx := typ.(type) {
	case *ast.Ident:
		name = tx.Name
	case *ast.SelectorExpr:
		if q, ok := tx.X.(*ast.Ident); ok {
			pkg, name = q.Name, tx.Sel.Name
		}
	}
	for _, s := range knobStructs[pkg] {
		if s == name {
			return pkg + "." + name
		}
	}
	return ""
}

// isZeroExpr reports whether e is the spelled-out default of its type.
func isZeroExpr(e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.BasicLit:
		return v.Value == "0" || v.Value == `""` || v.Value == "0.0"
	case *ast.Ident:
		return v.Name == "false" || v.Name == "nil"
	}
	return false
}

// parseRepo parses every Go file of the repository, bench/ included:
// the benchmark is a caller like any other.
func parseRepo(t *testing.T) map[string]*ast.File {
	t.Helper()
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		files[path], err = parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// exportExempt lists the exported functions and methods under internal/
// that need no caller by name, keyed as TestExportsHaveCallers keys
// them: methods that satisfy a standard interface (fmt, errors, sort
// call them), and the fault injectors and read-only accessors tests use
// as oracles (DESIGN §16).
var exportExempt = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Len": true, "Less": true, "Swap": true,

	"IsServer": true, "Leases": true, "ReadThroughput": true, "WriteThroughput": true,
	"BytesMoved": true, "TrackNames": true, "Yield": true, "Extents": true, "ChunkIndex": true,
	"ArmTornSync": true, "TornSyncs": true, "Heal": true, "CrashRank": true,
	"core.IsTyped": true, "obs.ReadEventLog": true, "bufpool.Stats": true,
}

// TestExportsHaveCallers: every exported function or method declared
// under internal/ is named by a non-test file — product code, a
// command, an example, bench/ — somewhere other than its own
// declaration. One that only tests call is code the product carries for
// nobody: it goes, or it is an oracle and joins exportExempt. Like the
// knob matrix the walk is syntactic. A package-level function is keyed
// "pkg.Name" and counts as named by a selector pkg.Name in another
// package or by a bare Name inside its own, so a method or a function
// of another package that spells the same name does not hide it. A
// method counts wherever an identifier spells its name.
func TestExportsHaveCallers(t *testing.T) {
	declared := map[string][]string{} // key under internal/ -> declaring files
	named := map[string]bool{}
	for path, f := range parseRepo(t) {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		pkg := f.Name.Name
		var own *ast.Ident // the name of the function being walked: not a use
		selected := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.FuncDecl:
				own = v.Name
				if v.Name.IsExported() && strings.HasPrefix(filepath.ToSlash(path), "internal/") {
					key := v.Name.Name
					if v.Recv == nil {
						key = pkg + "." + key
					}
					declared[key] = append(declared[key], path)
				}
			case *ast.SelectorExpr:
				if q, ok := v.X.(*ast.Ident); ok {
					named[q.Name+"."+v.Sel.Name] = true
				}
				selected[v.Sel] = true
			case *ast.Ident:
				if v != own {
					named[v.Name] = true
					if !selected[v] {
						named[pkg+"."+v.Name] = true
					}
				}
			}
			return true
		})
	}
	var orphans []string
	for key, paths := range declared {
		if !named[key] && !exportExempt[key] {
			for _, path := range paths {
				orphans = append(orphans, path+": "+key)
			}
		}
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Errorf("%d exported name(s) under internal/ that no non-test file calls — delete, call, or exempt as an oracle:\n  %s",
			len(orphans), strings.Join(orphans, "\n  "))
	}
}

func TestKnobMatrix(t *testing.T) {
	files := parseRepo(t)

	// Declarations. A knob is "pkg.Type.Field" or "cmd/bin -flag".
	declared := map[string]string{}   // knob -> declaring file
	owners := map[string][]string{}   // field name -> knobs
	flagsOf := map[string][2]string{} // knob -> {binary, flag name}
	for path, f := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.TypeSpec:
				st, isStruct := v.Type.(*ast.StructType)
				owner := auditedStruct(v.Name, f.Name.Name)
				if !isStruct || owner == "" {
					return true
				}
				for _, fld := range st.Fields.List {
					for _, name := range fld.Names {
						if name.IsExported() {
							declared[owner+"."+name.Name] = path
							owners[name.Name] = append(owners[name.Name], owner+"."+name.Name)
						}
					}
				}
			case *ast.CallExpr: // flag.String("name", …) or flag.StringVar(&v, "name", …)
				sel, _ := v.Fun.(*ast.SelectorExpr)
				if sel == nil || !strings.HasPrefix(path, "cmd/") {
					return true
				}
				if q, ok := sel.X.(*ast.Ident); !ok || q.Name != "flag" {
					return true
				}
				for _, arg := range v.Args[:min(2, len(v.Args))] {
					if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
						bin, name := filepath.Base(filepath.Dir(path)), strings.Trim(lit.Value, `"`)
						knob := "cmd/" + bin + " -" + name
						declared[knob], flagsOf[knob] = path, [2]string{bin, name}
						break
					}
				}
			}
			return true
		})
	}
	if len(declared) < 60 {
		t.Fatalf("the walk found only %d knobs: it is looking in the wrong place", len(declared))
	}

	// Fields: keyed literals and assignments outside the declaring file.
	set := map[string]bool{}
	mark := func(knob, path string, val ast.Expr) {
		if declared[knob] != "" && declared[knob] != path && !isZeroExpr(val) {
			set[knob] = true
		}
	}
	for path, f := range files {
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.CompositeLit:
				if st := auditedStruct(v.Type, pkg); st != "" {
					for _, el := range v.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok {
								mark(st+"."+key.Name, path, kv.Value)
							}
						}
					}
				}
			case *ast.AssignStmt:
				for i, lhs := range v.Lhs {
					sel, ok := lhs.(*ast.SelectorExpr)
					if !ok || i >= len(v.Rhs) {
						continue
					}
					// Package core sees only its own structs; everyone else
					// may hold either package's.
					var inSight []string
					for _, knob := range owners[sel.Sel.Name] {
						if pkg != "core" || strings.HasPrefix(knob, "core.") {
							inSight = append(inSight, knob)
						}
					}
					if len(inSight) == 1 { // else the name alone does not say whose field
						mark(inSight[0], path, v.Rhs[i])
					}
				}
			}
			return true
		})
	}

	// Flags: "-name" after the binary's name on one command line (with
	// continuations joined) of a test, a script, the Makefile or ci.yml.
	var corpus strings.Builder
	read := func(path string) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		corpus.Write(b)
	}
	for path := range files {
		if strings.HasSuffix(path, "_test.go") {
			read(path)
		}
	}
	for _, glob := range []string{"scripts/*", "Makefile", ".github/workflows/*"} {
		paths, _ := filepath.Glob(glob)
		for _, p := range paths {
			read(p)
		}
	}
	commands := strings.ReplaceAll(corpus.String(), "\\\n", " ")
	for knob, f := range flagsOf {
		re := regexp.MustCompile(`\b` + f[0] + `\b[^\n]*[\s"']-` + regexp.QuoteMeta(f[1]) + `\b`)
		if re.MatchString(commands) {
			set[knob] = true
		}
	}

	var unset []string
	for knob, path := range declared {
		if !set[knob] && knobAllow[knob] == "" {
			unset = append(unset, fmt.Sprintf("%s (declared in %s)", knob, path))
		}
	}
	sort.Strings(unset)
	if len(unset) > 0 {
		t.Errorf("%d knob(s) that nothing outside their declaring file sets — delete, exercise, or allow-list with a reason:\n  %s",
			len(unset), strings.Join(unset, "\n  "))
	}
	for knob, why := range knobAllow {
		if declared[knob] == "" {
			t.Errorf("allow-listed knob %q (%s) no longer exists", knob, why)
		} else if set[knob] {
			t.Errorf("allow-listed knob %q is set somewhere now: drop it from the list", knob)
		}
	}
}
