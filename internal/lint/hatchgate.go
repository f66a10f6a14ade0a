package lint

import (
	"go/ast"
	"sort"
	"strings"
)

// HatchGate enforces the hatch↔gate pairing rule: every differential
// escape hatch (no-wheel, copy-path, telemetry, -cc, -fidelity, any
// future ebs.Config hatch field) must ship with a registered differential
// gate — the byte-identity test that proves the fast path and the hatch
// path agree. A hatch without a gate is an untested divergence waiting to
// happen; a gate without a hatch is a test of nothing.
//
// Pairing is declared with markers that Collect exports as facts:
//
//	//lint:hatch <key>  — on the declaration implementing the hatch
//	                      (the enable flag, the Config field)
//	//lint:gate <key>   — on the differential test (or gate registration)
//	                      that locks the hatch; lives in _test.go files,
//	                      which Collect scans too
//
// Finish pairs the two fact sets across the whole suite: a hatch key with
// no gate is a finding at the hatch site, and a gate key with no hatch is
// a finding at the gate site (stale gate — its hatch was removed).
//
// Two local checks catch hatches that dodge the marker: reading a
// LUNASOLAR_* environment variable in a non-test file with no hatch
// marker in that file, and a package-level declaration whose doc comment
// calls itself a hatch without carrying the marker.
var HatchGate = &Analyzer{
	Name: "hatchgate",
	Doc: "every differential hatch (//lint:hatch <key>) must pair with a " +
		"registered differential gate (//lint:gate <key>), and vice versa",
	Run:     runHatchGate,
	Collect: collectHatchGate,
	Finish:  finishHatchGate,
}

// HatchPackages is where hatches live: the simulation core, the network
// model, and the EBS layer with its Config.
var HatchPackages = []string{"internal/sim*", "ebs"}

const (
	hatchMarker = "//lint:hatch"
	gateMarker  = "//lint:gate"
)

// markerKey extracts the key from a "//lint:hatch <key>" or
// "//lint:gate <key>" comment; ok is false if c is not that marker, and
// key is "" for a malformed bare marker. The key is the first word after
// the marker — trailing prose (or a fixture's // want tail) is ignored.
func markerKey(c *ast.Comment, marker string) (key string, ok bool) {
	if !strings.HasPrefix(c.Text, marker) {
		return "", false
	}
	rest := strings.TrimPrefix(c.Text, marker)
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", false // longer word, e.g. //lint:hatchling
	}
	if i := strings.Index(rest, "//"); i >= 0 {
		rest = rest[:i]
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return "", true
	}
	return fields[0], true
}

// collectHatchGate exports hatch and gate facts from every file,
// including _test.go files — gates are tests.
func collectHatchGate(pass *Pass) error {
	files := append(append([]*ast.File{}, pass.Files...), pass.TestFiles...)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if key, ok := markerKey(c, hatchMarker); ok && key != "" {
					pass.ExportFact("hatch", key, "", c.Pos())
				}
				if key, ok := markerKey(c, gateMarker); ok && key != "" {
					pass.ExportFact("gate", key, "", c.Pos())
				}
			}
		}
	}
	return nil
}

func runHatchGate(pass *Pass) error {
	if !inScope(pass.Pkg.Path(), HatchPackages) {
		return nil
	}
	for _, f := range pass.Files {
		fileHasHatch := false
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, marker := range []string{hatchMarker, gateMarker} {
					if key, ok := markerKey(c, marker); ok {
						if key == "" {
							pass.Reportf(c.Pos(), "marker",
								"bare %s marker: a key naming the hatch is required (e.g. %s no-wheel)", marker, marker)
						} else if marker == hatchMarker {
							fileHasHatch = true
						}
					}
				}
			}
		}
		checkEnvHatches(pass, f, fileHasHatch)
		checkDocHatches(pass, f)
	}
	return nil
}

// checkEnvHatches flags LUNASOLAR_* environment reads in files that
// declare no hatch marker: every runtime escape hatch in this repo is
// switched by such a variable, so an unmarked read is an unmarked hatch.
func checkEnvHatches(pass *Pass, f *ast.File, fileHasHatch bool) {
	if fileHasHatch {
		return
	}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Getenv" && sel.Sel.Name != "LookupEnv") {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "os" {
			return true
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok || !strings.Contains(lit.Value, "LUNASOLAR_") {
			return true
		}
		pass.Reportf(call.Pos(), "unmarked",
			"reading %s switches a differential hatch but this file declares no //lint:hatch marker: mark the hatch and register its gate", lit.Value)
		return true
	})
}

// checkDocHatches flags package-level declarations (including struct
// fields) whose doc comment calls them a hatch without a marker.
func checkDocHatches(pass *Pass, f *ast.File) {
	check := func(cg *ast.CommentGroup, pos ast.Node, what string) {
		if cg == nil {
			return
		}
		marked := false
		hatchWord := false
		for _, c := range cg.List {
			if _, ok := markerKey(c, hatchMarker); ok {
				marked = true
			}
			if strings.Contains(strings.ToLower(c.Text), "hatch") {
				hatchWord = true
			}
		}
		if hatchWord && !marked {
			pass.Reportf(pos.Pos(), "unmarked",
				"%s documents itself as a hatch but carries no //lint:hatch marker: mark it and register its gate", what)
		}
	}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		check(gd.Doc, gd, "declaration")
		for _, spec := range gd.Specs {
			switch spec := spec.(type) {
			case *ast.ValueSpec:
				check(spec.Doc, spec, "declaration")
			case *ast.TypeSpec:
				check(spec.Doc, spec, "declaration")
				if st, ok := spec.Type.(*ast.StructType); ok {
					for _, fld := range st.Fields.List {
						check(fld.Doc, fld, "field")
					}
				}
			}
		}
	}
}

// finishHatchGate pairs the suite-wide hatch and gate facts.
func finishHatchGate(fs *FactSet) []Diagnostic {
	hatches := map[string]Fact{}
	gates := map[string]Fact{}
	for _, f := range fs.Kind("hatchgate", "hatch") {
		if _, dup := hatches[f.Name]; !dup {
			hatches[f.Name] = f
		}
	}
	for _, f := range fs.Kind("hatchgate", "gate") {
		if _, dup := gates[f.Name]; !dup {
			gates[f.Name] = f
		}
	}
	var diags []Diagnostic
	for _, key := range sortedKeys(hatches) {
		if _, ok := gates[key]; !ok {
			diags = append(diags, Diagnostic{
				Position: hatches[key].position(),
				Analyzer: "hatchgate",
				Category: "ungated",
				Message: "hatch " + key + " has no registered differential gate (//lint:gate " + key +
					"): a hatch must never ship without its byte-identity test",
			})
		}
	}
	for _, key := range sortedKeys(gates) {
		if _, ok := hatches[key]; !ok {
			diags = append(diags, Diagnostic{
				Position: gates[key].position(),
				Analyzer: "hatchgate",
				Category: "stale",
				Message: "gate " + key + " pairs with no //lint:hatch " + key +
					" marker: either the hatch was removed (delete the gate) or it is unmarked",
			})
		}
	}
	return diags
}

func sortedKeys(m map[string]Fact) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
