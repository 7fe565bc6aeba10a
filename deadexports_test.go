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

// deadExportAllowlist is every exported declaration under internal/ that no
// non-test file of the module names (bench/, cmd/ and examples/ count as
// callers), with the reason it is still there. Everything is internal/, so
// such a name has no caller by construction. TestNoDeadExports fails on a
// dead export that is not listed, and on a listed name that gained a caller
// or disappeared — the list can only shrink.
var deadExportAllowlist = map[string]string{
	// Constructors other packages' tests build fixtures with.
	"internal/noc.MustNew":               "cross-package test constructor (noc, power tests)",
	"internal/workload.MustNewGenerator": "cross-package test constructor (gpu, sm, trace, checkpoint tests)",
	"internal/addrmap.DefaultGeometry":   "test fixture: the baseline geometry the addrmap tests map against",
	"internal/scenario.CaseFromBytes":    "decoder of the checked-in FuzzScenario corpus",

	// Probes of simulator state that only tests read.
	"internal/cache.(*ATD).Sampled":           "test probe: which sets the ATD samples",
	"internal/cache.(*Cache).Invalidate":      "test probe: sharer-tracking and eviction tests",
	"internal/cache.(*MSHRTable).Allocate":    "reference path: the one-call Probe+Commit the MSHR unit tests drive; hot paths call the pair",
	"internal/cache.(*MSHRTable).Capacity":    "test probe",
	"internal/cache.(Stats).HitRate":          "test probe",
	"internal/config.(Config).L1Sets":         "test probe: geometry validation",
	"internal/gpu.(*GPU).SliceWritePolicy":    "test probe: write policy after a reconfiguration",
	"internal/llc.(*Slice).Local":             "test probe",
	"internal/llc.(Stats).HitRate":            "test probe",
	"internal/noc.(Stats).AvgHops":            "test probe",
	"internal/pool.(*FreeList).FreeLen":       "test probe",
	"internal/ring.(*Deque).Cap":              "test probe: growth policy",
	"internal/sm.(*SM).OutstandingLoads":      "test probe: drained-SM assertions",
	"internal/trace.(*Player).DrainOps":       "test probe: end-of-trace policy",
	"internal/trace.(*Player).Loops":          "test probe: end-of-trace policy",
	"internal/workload.(*Generator).CTAOf":    "test probe: CTA scheduling policies",
	"internal/workload.(*Generator).OpCounts": "test probe: op-mix calibration",
	"internal/obs.(*Registry).FamilyNames":    "test probe: the Grafana dashboard test checks it references only exported series",
	"internal/scenario.(Scenario).HasAxis":    "test probe: catalog coverage",
	"internal/scenario.ByLevel":               "test probe: catalog coverage",

	"internal/cluster.(*Node).Crash": "fault injection: the replica drills and the one-hop job lookup tests crash a member without a farewell",
}

// TestNoDeadExports is a go/parser name scan, deliberately conservative: a
// declaration counts as used when its bare name appears anywhere in a
// non-test file other than at its own declaration, whatever it resolves to.
// That is also its blind spot: a dead method that shares its bare name with a
// live one (client.Pool.Runs hid behind client.Client.Runs until PR 23;
// dram.Controller.QueueLen, a test probe, hides behind llc.Slice.QueueLen
// since PR 25) is invisible to it, so a review of a type's surface checks
// methods by receiver.
func TestNoDeadExports(t *testing.T) {
	fset := token.NewFileSet()
	var declared []struct{ qualified, name string }
	used := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
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
		path = filepath.ToSlash(path)
		pkg := filepath.ToSlash(filepath.Dir(path))
		own := map[*ast.Ident]bool{}
		declare := func(id *ast.Ident, qualified string) {
			own[id] = true
			if strings.HasPrefix(path, "internal/") && id.IsExported() {
				declared = append(declared, struct{ qualified, name string }{pkg + "." + qualified, id.Name})
			}
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				declare(decl.Name, receiver(decl)+decl.Name.Name)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						declare(spec.Name, spec.Name.Name)
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							declare(n, n.Name)
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	dead := map[string]bool{}
	for _, d := range declared {
		if !used[d.name] {
			dead[d.qualified] = true
		}
	}
	var problems []string
	for q := range dead {
		if _, ok := deadExportAllowlist[q]; !ok {
			problems = append(problems, q+": exported, but no non-test file names it; delete or unexport it")
		}
	}
	for q := range deadExportAllowlist {
		if !dead[q] {
			problems = append(problems, q+": allowlisted, but it gained a caller or no longer exists; drop it from the allowlist")
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}

// receiver renders a method's receiver as "(*T)." or "(T).", empty for a
// function.
func receiver(decl *ast.FuncDecl) string {
	if decl.Recv == nil || len(decl.Recv.List) == 0 {
		return ""
	}
	typ, star := decl.Recv.List[0].Type, ""
	if p, ok := typ.(*ast.StarExpr); ok {
		typ, star = p.X, "*"
	}
	if g, ok := typ.(*ast.IndexExpr); ok {
		typ = g.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return "(" + star + id.Name + ")."
	}
	return "(?)."
}
