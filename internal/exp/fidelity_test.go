package exp

import (
	"slices"
	"testing"
)

// TestFidelity regenerates every figure that carries a claim at -quick scale
// and logs each claim's verdict (run it with -v to see them). A failing claim
// must be known-failing, and a known-failing claim that passes fails the test
// until it is struck from knownFailing.
func TestFidelity(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates Figures 2 and 11-16 at -quick scale: Figure 11's 51 runs, Figure 15's pairs and Figure 16's sweep")
	}
	cs := claims()
	var figs []FigureJob
	for _, c := range cs {
		if slices.ContainsFunc(figs, func(f FigureJob) bool { return f.Key == c.figure }) {
			continue
		}
		f, ok := FigureByKey(c.figure)
		if !ok {
			t.Fatalf("claim %s reads figure %q, which the registry lacks", c.name, c.figure)
		}
		figs = append(figs, f)
	}
	tables := map[string]Table{}
	simulated := 0
	Regenerate(figs, QuickOptions(), func(f FigureJob, tb Table, _, sim int, err error) {
		if err != nil {
			t.Fatal(err)
		}
		tables[f.Key] = tb
		simulated += sim
	})
	// Figures 2, 12, 13 and 14 are slices of Figure 11's grid: their claims
	// cost no run of their own.
	t.Logf("%d runs simulated for %d figures", simulated, len(figs))

	names := map[string]bool{}
	for _, c := range cs {
		if names[c.name] {
			t.Fatalf("claim %s is declared twice", c.name)
		}
		names[c.name] = true
		ours, ok := c.check(tables[c.figure])
		status := "pass"
		switch known := knownFailing[c.name]; {
		case ok && known:
			status = "passes, but listed known-failing"
			t.Errorf("%s now holds (%s): strike it from knownFailing", c.name, ours)
		case !ok && known:
			status = "known-failing"
		case !ok:
			status = "FAIL"
			t.Errorf("%s fails (%s)", c.name, ours)
		}
		t.Logf("%-40s %-34s %s", c.name, ours, status)
	}
	for name := range knownFailing {
		if !names[name] {
			t.Errorf("known-failing %s is no claim", name)
		}
	}
}
