package main

import (
	"fmt"
	"io"
	"reflect"
)

// compareFiles judges result file B (the candidate) against A (the base):
// one row per workload and end-to-end metric, each under that metric's own
// bound. It refuses to compare recordings of hosts with different core
// counts, demands identical simulated statistics when the seeds match, and
// returns non-zero on a regression or a larger share of failed operations.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readResultFile(pathA)
	if err == nil {
		var b ResultFile
		if b, err = readResultFile(pathB); err == nil {
			return compareResults(w, a, b)
		}
	}
	fmt.Fprintln(w, "simbench -compare:", err)
	return 2
}

func compareResults(w io.Writer, a, b ResultFile) int {
	if a.Host.HostCPUs != b.Host.HostCPUs {
		fmt.Fprintf(w, "refusing to compare: recorded with host_cpus=%d and host_cpus=%d\n", a.Host.HostCPUs, b.Host.HostCPUs)
		return 2
	}
	timedRuns := func(rf ResultFile, name string) []WorkloadResult {
		var out []WorkloadResult
		for _, r := range rf.Runs {
			if r.Workload == name && !r.Traced {
				out = append(out, r)
			}
		}
		return out
	}
	values := func(runs []WorkloadResult, metric string) []float64 {
		var out []float64
		for _, r := range runs {
			if m, ok := r.Metrics[metric]; ok {
				out = append(out, m.Value)
			}
		}
		return out
	}
	failedShare := func(runs []WorkloadResult) float64 {
		var attempted, failed int
		for _, r := range runs {
			attempted += r.OpsAttempted
			failed += r.OpsFailed
		}
		return ratio(float64(failed), float64(attempted))
	}

	bad, compared := false, 0
	fmt.Fprintf(w, "%-16s %-14s %14s %14s %8s %7s %7s %7s  %s\n",
		"workload", "metric", "base", "candidate", "worse", "bound", "sprd-a", "sprd-b", "verdict")
	for _, def := range workloads {
		ra, rb := timedRuns(a, def.Name), timedRuns(b, def.Name)
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		compared++
		for _, d := range endToEnd {
			va, vb := values(ra, d.Name), values(rb, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-16s %-14s missing on one side\n", def.Name, d.Name)
				bad = true
				continue
			}
			v := verdict(d.Better, d.Bound, va, vb)
			if v == "regressed" {
				bad = true
			}
			fmt.Fprintf(w, "%-16s %-14s %14.6g %14.6g %+7.1f%% %6.0f%% %6.1f%% %6.1f%%  %s\n",
				def.Name, d.Name, median(va), median(vb), 100*worsening(d.Better, median(va), median(vb)),
				100*d.Bound, 100*spread(va), 100*spread(vb), v)
		}
		if a.Seed == b.Seed {
			// Every run of either side simulated the same inputs.
			stray := ""
			for _, r := range append(append([]WorkloadResult(nil), ra...), rb...) {
				if r.StatsDigest != ra[0].StatsDigest || !reflect.DeepEqual(r.Counters, ra[0].Counters) {
					stray = r.StatsDigest
					break
				}
			}
			if stray != "" {
				fmt.Fprintf(w, "%-16s simulated statistics differ at seed %d: digest %.12s vs %.12s\n",
					def.Name, a.Seed, ra[0].StatsDigest, stray)
				bad = true
			} else {
				fmt.Fprintf(w, "%-16s simulated statistics identical (digest %.12s, %d exact counters)\n",
					def.Name, ra[0].StatsDigest, len(ra[0].Counters))
			}
		}
		if fa, fb := failedShare(ra), failedShare(rb); fb > fa {
			fmt.Fprintf(w, "%-16s share of failed operations grew: %.4f%% -> %.4f%%\n", def.Name, 100*fa, 100*fb)
			bad = true
		}
	}
	if compared == 0 {
		fmt.Fprintln(w, "the two files share no timed workload")
		return 2
	}
	if bad {
		return 1
	}
	return 0
}
