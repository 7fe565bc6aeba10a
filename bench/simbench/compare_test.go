package main

import (
	"strings"
	"testing"
)

// resultSet fabricates a result file: `runs` repeats of one workload whose
// end-to-end metrics all sit at scale x their nominal value.
func resultSet(cpus int, seed int64, digest string, scale float64, failed int) ResultFile {
	rf := ResultFile{Host: Host{HostCPUs: cpus}, Seed: seed}
	for i := 0; i < 5; i++ {
		jitter := 1 + 0.002*float64(i-2)
		r := WorkloadResult{Workload: wlMemoryShared, Seed: seed, OpsAttempted: 100, OpsFailed: failed,
			StatsDigest: digest, Counters: map[string]uint64{"cycles": 32_000}, Metrics: map[string]Metric{}}
		for _, d := range endToEnd {
			v := 100 * jitter
			if d.Better == "higher" {
				v /= scale // a slower candidate has lower rates ...
			} else {
				v *= scale // ... and higher times
			}
			r.Metrics[d.Name] = Metric{Value: v, Unit: d.Unit}
		}
		rf.Runs = append(rf.Runs, r)
	}
	return rf
}

func TestCompareResults(t *testing.T) {
	base := resultSet(2, 1, "aa", 1, 0)
	for _, tc := range []struct {
		name string
		cand ResultFile
		code int
		want string
	}{
		{"same commit", resultSet(2, 1, "aa", 1.01, 0), 0, "simulated statistics identical"},
		{"slower past every bound", resultSet(2, 1, "aa", 1.40, 0), 1, "regressed"},
		{"faster", resultSet(2, 1, "aa", 0.70, 0), 0, "ok"},
		{"other host", resultSet(4, 1, "aa", 1, 0), 2, "refusing to compare"},
		{"statistics changed at the same seed", resultSet(2, 1, "bb", 1, 0), 1, "simulated statistics differ"},
		{"other seed may differ", resultSet(2, 2, "bb", 1, 0), 0, "ok"},
		{"more failures", resultSet(2, 1, "aa", 1, 3), 1, "share of failed operations grew"},
	} {
		var out strings.Builder
		if code := compareResults(&out, base, tc.cand); code != tc.code {
			t.Errorf("%s: exit code %d, want %d\n%s", tc.name, code, tc.code, out.String())
		}
		if !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: output lacks %q\n%s", tc.name, tc.want, out.String())
		}
	}

	// One row per workload x end-to-end metric.
	var out strings.Builder
	compareResults(&out, base, base)
	for _, d := range endToEnd {
		if !strings.Contains(out.String(), d.Name) {
			t.Errorf("no row for %s\n%s", d.Name, out.String())
		}
	}

	// A candidate whose own runs disagree by more than the bound is
	// unresolved, not ok and not regressed.
	noisy := resultSet(2, 1, "aa", 1, 0)
	for i := range noisy.Runs {
		m := noisy.Runs[i].Metrics["main_per_s"]
		m.Value = 60 + 20*float64(i)
		noisy.Runs[i].Metrics["main_per_s"] = m
	}
	out.Reset()
	if code := compareResults(&out, base, noisy); code != 0 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("noisy candidate: code %d\n%s", code, out.String())
	}

	// Traced runs carry no end-to-end metrics and are not compared.
	traced := resultSet(2, 1, "aa", 1, 0)
	for i := range traced.Runs {
		traced.Runs[i].Traced = true
	}
	out.Reset()
	if code := compareResults(&out, base, traced); code != 2 {
		t.Errorf("traced-only candidate: code %d, want 2\n%s", code, out.String())
	}
}
