// Command simbench is the repository's benchmark: four workloads, host-speed
// end-to-end metrics, and a traced mode that puts a number on every layer.
//
//	go run ./bench/simbench -workload all -seed 1 -out bench/out/result.json
//	go run ./bench/simbench -workload memory-shared -seed 1 -trace 1
//	go run ./bench/simbench -compare bench/recorded/set-a.json bench/recorded/set-b.json
//
// Host time is wall-clock of this process; simulated time is cycles of the
// modelled GPU; every metric says which it uses (bench/README.md). The last
// line of standard output of a single-workload run is one JSON object:
// correct, attempted, failed and the metrics (end-to-end with -trace 0,
// per-layer with -trace 1). See bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload = flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+" or all")
		seed     = flag.Int64("seed", 1, "seed of the workload generators and of the tiny service specs")
		seconds  = flag.Int("seconds", 30, "how long one run repeats its round")
		trace    = flag.Int("trace", 0, "1: make the traced run (per-layer metrics, spans, overhead) instead of the timed one")
		repeat   = flag.Int("repeat", 1, "runs per workload; -compare needs several to judge spread")
		out      = flag.String("out", "", "write every run's result to this JSON file")
		scratch  = flag.String("scratch", "bench/out", "directory inside the checkout for temp stores and trace files")
		samples  = flag.String("samples", "", "write every raw timing sample of a timed run to this JSON file")
		compare  = flag.Bool("compare", false, "compare two result files: simbench -compare A.json B.json")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: simbench -compare A.json B.json")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 || *seconds < 1 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return 2
	}
	var defs []workloadDef
	if *workload == "all" {
		defs = workloads
	} else if def, ok := findWorkload(*workload); ok {
		defs = []workloadDef{def}
	} else {
		fmt.Fprintf(os.Stderr, "unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}

	start := time.Now()
	rf := ResultFile{Host: thisHost(), Seed: *seed, Seconds: *seconds, Model: modelNote}
	fmt.Printf("simbench: host_cpus=%d GOMAXPROCS=%d %s seed=%d seconds=%d trace=%d\n",
		rf.Host.HostCPUs, rf.Host.GOMAXPROCS, rf.Host.GoVersion, *seed, *seconds, *trace)
	fmt.Println("simbench:", modelNote)
	exit := 0
	for _, def := range defs {
		for i := 0; i < *repeat; i++ {
			res, err := runWorkload(def, runOptions{Seed: *seed, Seconds: *seconds, Traced: *trace == 1, Scratch: *scratch, Samples: *samples})
			if err != nil {
				fmt.Fprintf(os.Stderr, "simbench: %s: %v\n", def.Name, err)
				return 1
			}
			rf.Runs = append(rf.Runs, res)
			printResult(def, res)
			if res.OpsFailed > 0 || len(res.FailedChecks) > 0 {
				exit = 1
			}
		}
	}
	rf.TotalWallS = time.Since(start).Seconds()
	fmt.Printf("simbench: total wall-clock %.1f s\n", rf.TotalWallS)
	if *out != "" {
		if err := writeResultFile(*out, rf); err != nil {
			fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
			return 1
		}
	}
	// The driver reads the last line of standard output.
	fmt.Println(driverLine(rf.Runs[len(rf.Runs)-1]))
	return exit
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

// printResult prints every metric of one run by name with its unit.
func printResult(def workloadDef, res WorkloadResult) {
	mode := "timed (tracing off)"
	if res.Traced {
		mode = "traced"
	}
	fmt.Printf("\n== %s  [%s, seed %d, %d round(s), %.1f s wall]\n", res.Workload, mode, res.Seed, res.Rounds, res.WallS)
	fmt.Printf("   why: %s\n", def.Why)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		line := fmt.Sprintf("   %-30s %16.6g %-8s", name, m.Value, m.Unit)
		d, ok := findMetric(endToEnd, name)
		if !ok {
			d, _ = findMetric(perLayer, name)
		}
		switch {
		case m.Samples == 0:
		case ok && d.Time == "host":
			// stats.go, quiet: a deterministic unit of work is reported at
			// its second-fastest repeat.
			line += fmt.Sprintf(" quiet time of %d samples", m.Samples)
		default:
			line += fmt.Sprintf(" median of %d", m.Samples)
		}
		if d.Time != "" {
			line += " [" + d.Time + " time]"
		}
		if what := def.Paths[name]; what != "" {
			line += "  # " + what
		} else if d.Help != "" {
			line += "  # " + d.Help
		}
		fmt.Println(line)
	}
	fmt.Printf("   ops_attempted=%d ops_failed=%d stats_digest=%s\n", res.OpsAttempted, res.OpsFailed, res.StatsDigest)
	keys := make([]string, 0, len(res.Notes))
	for k := range res.Notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("   %s=%s\n", k, res.Notes[k])
	}
	for _, c := range res.FailedChecks {
		fmt.Printf("   FAILED CHECK: %s\n", c)
	}
}

// driverLine renders a run the way the benchmark contract wants the last
// line of standard output.
func driverLine(res WorkloadResult) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for name, m := range res.Metrics {
		metrics[name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.OpsFailed == 0 && len(res.FailedChecks) == 0, res.OpsAttempted, res.OpsFailed, metrics})
	if err != nil {
		panic(err) // numbers and strings only
	}
	return string(line)
}
