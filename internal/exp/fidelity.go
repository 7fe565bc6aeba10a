package exp

import (
	"fmt"
	"math"

	"repro/internal/workload"
)

// A claim is one statement of the paper that a figure of ours must bear out,
// as a predicate over the figure's Table read through Value and Stat: check
// reports what our table shows and whether that meets the claim.
type claim struct {
	figure string // registry key of the figure whose table it reads
	name   string // unique across claims, e.g. "11/adaptive/LUD"
	check  func(Table) (ours string, ok bool)
}

// trackBand is how close the adaptive LLC must come to the better static
// organization for "adaptive tracks the best of shared and private".
const trackBand = 0.97

// neutralBand is how far from the shared LLC's performance a neutral
// benchmark may land under the private LLC and still be neutral.
const neutralBand = 0.05

// claims lists the paper's claims, figure by figure:
//   - Figure 2: under the private LLC, shared-friendly benchmarks run slower
//     than under the shared one, private-friendly ones faster, and neutral
//     ones within neutralBand of it;
//   - Figure 11: the adaptive LLC performs within trackBand of the better
//     static organization, on every benchmark and on each class's harmonic
//     mean;
//   - Figure 12: the private LLC answers at least as many flits a cycle as
//     the shared one on every private-friendly benchmark, and more on their
//     harmonic mean;
//   - Figure 13: the private LLC misses at least as often as the shared one
//     on every shared-friendly benchmark, and more on their average;
//   - Figure 14: the adaptive LLC spends less NoC energy than the shared one
//     on every private-friendly benchmark, and on the average;
//   - Figure 15: co-running a shared-friendly with a private-friendly
//     application, adaptive caching's system throughput is at least the
//     shared LLC's on every pair, and above it on the average.
func claims() []claim {
	var cs []claim
	for _, w := range workload.Catalog() {
		abbr, class := w.Abbr, w.Class
		cs = append(cs, claim{"2", "2/sign/" + abbr, func(t Table) (string, bool) {
			n, ok := t.Value(abbr, "private norm.")
			return classSign(class, n, ok)
		}})
	}
	for _, w := range workload.Catalog() {
		abbr := w.Abbr
		cs = append(cs, claim{"11", "11/adaptive/" + abbr, func(t Table) (string, bool) {
			shared, ok1 := t.Value(abbr, "shared")
			private, ok2 := t.Value(abbr, "private")
			adaptive, ok3 := t.Value(abbr, "adaptive")
			return tracks(adaptive, max(shared, private), ok1 && ok2 && ok3)
		}})
	}
	for _, c := range classes {
		class := c.String()
		cs = append(cs, claim{"11", "11/hm-adaptive/" + class, func(t Table) (string, bool) {
			// Shared is the normalization base: its harmonic mean is 1.
			private, ok1 := t.Stat("hm-private/" + class)
			adaptive, ok2 := t.Stat("hm-adaptive/" + class)
			return tracks(adaptive, max(1, private), ok1 && ok2)
		}})
	}
	for _, f := range []struct {
		figure, summary string
		class           workload.Class
	}{{"12", "hm", workload.PrivateFriendly}, {"13", "avg", workload.SharedFriendly}} {
		for _, w := range workload.ByClass(f.class) {
			abbr := w.Abbr
			cs = append(cs, claim{f.figure, f.figure + "/order/" + abbr, func(t Table) (string, bool) {
				private, ok1 := t.Value(abbr, "private")
				shared, ok2 := t.Value(abbr, "shared")
				return orders(private, shared, ok1 && ok2, false)
			}})
		}
		summary := f.summary
		cs = append(cs, claim{f.figure, f.figure + "/" + summary, func(t Table) (string, bool) {
			private, ok1 := t.Stat(summary + "-private")
			shared, ok2 := t.Stat(summary + "-shared")
			return orders(private, shared, ok1 && ok2, true)
		}})
	}
	for _, w := range workload.ByClass(workload.PrivateFriendly) {
		abbr := w.Abbr
		cs = append(cs, claim{"14", "14/noc-energy/" + abbr, func(t Table) (string, bool) {
			n, ok := t.Value(abbr, "NoC energy (norm.)")
			return below(n, ok)
		}})
	}
	cs = append(cs, claim{"14", "14/avg-noc", func(t Table) (string, bool) {
		n, ok := t.Stat("avg-noc")
		return below(n, ok)
	}})
	for _, sw := range workload.ByClass(workload.SharedFriendly) {
		for _, pw := range workload.ByClass(workload.PrivateFriendly) {
			pair := sw.Abbr + "/" + pw.Abbr
			cs = append(cs, claim{"15", "15/speedup/" + pair, func(t Table) (string, bool) {
				n, ok := t.Value(pair, "speedup")
				return atLeastOne(n, ok, false)
			}})
		}
	}
	cs = append(cs, claim{"15", "15/avg-speedup", func(t Table) (string, bool) {
		n, ok := t.Stat("avg-speedup")
		return atLeastOne(n, ok, true)
	}})
	return cs
}

// below judges a quantity normalized to the shared LLC to be under 1.
func below(n float64, found bool) (string, bool) {
	if !found {
		return "not in the table", false
	}
	return fmt.Sprintf("%.3f, want < 1", n), n < 1
}

// atLeastOne judges a ratio over the shared LLC to be ≥ 1, or > 1 when
// strict.
func atLeastOne(n float64, found, strict bool) (string, bool) {
	if !found {
		return "not in the table", false
	}
	if strict {
		return fmt.Sprintf("%.3f, want > 1", n), n > 1
	}
	return fmt.Sprintf("%.3f, want ≥ 1", n), n >= 1
}

// tracks judges adaptive ≥ trackBand × best, printing the two and their ratio.
func tracks(adaptive, best float64, found bool) (string, bool) {
	if !found || best <= 0 {
		return "not in the table", false
	}
	return fmt.Sprintf("%.3f of best %.3f (%.3f)", adaptive, best, adaptive/best), adaptive >= trackBand*best
}

// classSign judges a benchmark's private-over-shared performance n by its
// class: below 1 for shared-friendly, above 1 for private-friendly, within
// neutralBand of 1 for neutral.
func classSign(class workload.Class, n float64, found bool) (string, bool) {
	if !found {
		return "not in the table", false
	}
	switch class {
	case workload.SharedFriendly:
		return fmt.Sprintf("%.3f, want < 1", n), n < 1
	case workload.PrivateFriendly:
		return fmt.Sprintf("%.3f, want > 1", n), n > 1
	default:
		return fmt.Sprintf("%.3f, want 1 ± %.2f", n, neutralBand), math.Abs(n-1) <= neutralBand
	}
}

// orders judges private ≥ shared, or private > shared when strict, printing
// the two.
func orders(private, shared float64, found, strict bool) (string, bool) {
	if !found {
		return "not in the table", false
	}
	ok := private >= shared
	if strict {
		ok = private > shared
	}
	return fmt.Sprintf("private %.3f, shared %.3f", private, shared), ok
}

// knownFailing names the claims today's model does not meet at -quick scale.
// Figure 11's leads are the controller's: degenerate ATD miss-rate
// estimates, and Rule #3's kernel-boundary reconfigurations replayed at
// harness scale. Figure 2's are three neutral benchmarks the private LLC
// slows by more than neutralBand: BS to 0.535, BINO and VA to 0.946.
// Figure 15's are three of 3DC's pairs, whose system throughput adaptive
// caching lowers by under 1 % (0.991 to 0.997).
// TestFidelity fails when one of them starts to pass, so the list can only
// shrink.
var knownFailing = map[string]bool{
	"2/sign/BS":   true,
	"2/sign/BINO": true,
	"2/sign/VA":   true,

	"11/adaptive/LUD":                 true,
	"11/adaptive/3DC":                 true,
	"11/adaptive/BT":                  true,
	"11/adaptive/BP":                  true,
	"11/adaptive/AN":                  true,
	"11/adaptive/RN":                  true,
	"11/adaptive/NN":                  true,
	"11/adaptive/MM":                  true,
	"11/adaptive/BS":                  true,
	"11/adaptive/BINO":                true,
	"11/adaptive/VA":                  true,
	"11/hm-adaptive/shared-friendly":  true,
	"11/hm-adaptive/private-friendly": true,
	"11/hm-adaptive/neutral":          true,

	"15/speedup/3DC/AN": true,
	"15/speedup/3DC/SN": true,
	"15/speedup/3DC/MM": true,
}
