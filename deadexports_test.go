package repro_test

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadExportAllowlist is every exported declaration under internal/ that no
// non-test code of the module uses (bench/, cmd/ and examples/ count as
// callers), with the reason it is still there. Everything is internal/, so
// such a name has no caller by construction. TestNoDeadExports fails on a
// dead export that is not listed, and on a listed name that gained a caller
// or disappeared — the list can only shrink.
var deadExportAllowlist = map[string]string{
	// Constructors other packages' tests build fixtures with.
	"internal/noc.MustNew":               "cross-package test constructor (noc, power tests)",
	"internal/workload.MustNewGenerator": "cross-package test constructor (gpu, sm, checkpoint tests)",
	"internal/addrmap.DefaultGeometry":   "test fixture: the baseline geometry the addrmap tests map against",
	"internal/scenario.CaseFromBytes":    "decoder of the checked-in FuzzScenario corpus",
	"internal/scenario.(FuzzCase).Check": "fuzz harness: the invariant check FuzzScenario drives",
	"internal/exp.(FigureJob).Run":       "test entry point: one figure regenerated alone, the reference the exp and server figure tests compare engines against",

	// Probes of simulator state that only tests read.
	"internal/cache.(*ATD).HardwareBytes":     "test probe: the ATD's storage against the paper's 432-byte budget",
	"internal/cache.(*ATD).Sampled":           "test probe: which sets the ATD samples",
	"internal/cache.(*Cache).Invalidate":      "test probe: sharer-tracking and eviction tests",
	"internal/cache.(*MSHRTable).Allocate":    "reference path: the one-call Probe+Commit the MSHR unit tests drive; hot paths call the pair",
	"internal/cache.(*MSHRTable).Capacity":    "test probe",
	"internal/config.(Config).L1Sets":         "test probe: geometry validation",
	"internal/gpu.(*GPU).SliceWritePolicy":    "test probe: write policy after a reconfiguration",
	"internal/llc.(*Slice).Local":             "test probe",
	"internal/llc.(Stats).HitRate":            "test probe",
	"internal/noc.(Stats).AvgHops":            "test probe",
	"internal/noc.PortVisits":                 "test probe: BenchmarkStep's NoC port visits per cycle",
	"internal/pool.(*FreeList).FreeLen":       "test probe",
	"internal/ring.(*Deque).Cap":              "test probe: growth policy",
	"internal/sm.(*SM).OutstandingLoads":      "test probe: drained-SM assertions",
	"internal/workload.(*Generator).CTAOf":    "test probe: CTA scheduling policies",
	"internal/workload.(*Generator).OpCounts": "test probe: op-mix calibration",
	"internal/obs.(*Registry).FamilyNames":    "test probe: the Grafana dashboard test checks it references only exported series",
	"internal/obs.(*Counter).Value":           "test probe: the cluster tests count each daemon's requests per route",
	"internal/scenario.(Scenario).HasAxis":    "test probe: catalog coverage",
	"internal/scenario.ByLevel":               "test probe: catalog coverage",

	"internal/cluster.(*Node).Crash": "fault injection: the replica drills and the one-hop job lookup tests crash a member without a farewell",
}

// TestNoDeadExports type-checks every non-test file of the module (go list,
// go/parser, go/types; the standard library through the source importer) and
// resolves each use to the object it denotes, so a dead method is found even
// when a live one shares its bare name. An exported function, type, var,
// const or method declared under internal/ is used when non-test code refers
// to it. A method of a concrete type is also used when non-test code calls a
// method of an interface the type implements, a type-parameter constraint
// included, or when the type satisfies error or fmt.Stringer, whose methods
// the standard library calls.
func TestNoDeadExports(t *testing.T) {
	cmd := exec.Command("go", "list", "-deps", "-json=ImportPath,Dir,GoFiles,Standard", "./...")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})
	used := map[types.Object]bool{}
	var internal []*types.Package
	// go list -deps prints a package after everything it imports.
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p struct {
			ImportPath, Dir string
			GoFiles         []string
			Standard        bool
		}
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		if p.Standard {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatal(err)
		}
		checked[p.ImportPath] = pkg
		for _, obj := range info.Uses {
			if f, ok := obj.(*types.Func); ok {
				obj = f.Origin()
			}
			used[obj] = true
		}
		if strings.HasPrefix(p.ImportPath, "repro/internal/") {
			internal = append(internal, pkg)
		}
	}

	// calledVia lists, by method name, the interfaces non-test code calls
	// that method through.
	calledVia := map[string][]*types.Interface{}
	for obj := range used {
		if iface := ifaceOf(obj); iface != nil {
			calledVia[obj.Name()] = append(calledVia[obj.Name()], iface)
		}
	}
	fmtPkg, err := imp.Import("fmt")
	if err != nil {
		t.Fatal(err)
	}
	for _, named := range []types.Type{types.Universe.Lookup("error").Type(), fmtPkg.Scope().Lookup("Stringer").Type()} {
		iface := named.Underlying().(*types.Interface)
		calledVia[iface.Method(0).Name()] = append(calledVia[iface.Method(0).Name()], iface)
	}
	live := func(obj types.Object) bool {
		if used[obj] {
			return true
		}
		recv := recvNamed(obj)
		if recv == nil || types.IsInterface(recv) {
			return false
		}
		for _, iface := range calledVia[obj.Name()] {
			if hasMethods(recv, iface) {
				return true
			}
		}
		return false
	}

	dead := map[string]bool{}
	check := func(obj types.Object, qualified string) {
		if obj.Exported() && !live(obj) {
			dead[strings.TrimPrefix(obj.Pkg().Path(), "repro/")+"."+qualified] = true
		}
	}
	for _, pkg := range internal {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			check(obj, name)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				star := ""
				if _, ok := recvType(m).(*types.Pointer); ok {
					star = "*"
				}
				check(m, "("+star+name+")."+m.Name())
			}
			if iface, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < iface.NumExplicitMethods(); i++ {
					m := iface.ExplicitMethod(i)
					check(m, "("+name+")."+m.Name())
				}
			}
		}
	}

	var problems []string
	for q := range dead {
		if _, ok := deadExportAllowlist[q]; !ok {
			problems = append(problems, q+": exported, but no non-test code uses it; delete or unexport it")
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

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// recvType is the receiver type of method obj, or nil for anything else.
func recvType(obj types.Object) types.Type {
	if f, ok := obj.(*types.Func); ok && f.Signature().Recv() != nil {
		return f.Signature().Recv().Type()
	}
	return nil
}

// recvNamed is the named type whose method obj is, or nil.
func recvNamed(obj types.Object) *types.Named {
	t := recvType(obj)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// ifaceOf is the interface obj is a method of — for a method called on a
// type parameter, the parameter's constraint — or nil.
func ifaceOf(obj types.Object) *types.Interface {
	t := recvType(obj)
	if tp, ok := t.(*types.TypeParam); ok {
		t = tp.Constraint()
	}
	if t == nil {
		return nil
	}
	iface, _ := t.Underlying().(*types.Interface)
	return iface
}

// hasMethods reports whether T or *T has every method of iface. Type terms
// of a constraint are ignored: only the methods are called.
func hasMethods(T types.Type, iface *types.Interface) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		want := iface.Method(i)
		obj, _, _ := types.LookupFieldOrMethod(T, true, want.Pkg(), want.Name())
		got, ok := obj.(*types.Func)
		if !ok || !types.Identical(got.Type(), want.Type()) {
			return false
		}
	}
	return true
}
