// Command paperfigs regenerates the tables and figures of the paper's
// evaluation section on the simulated GPU and prints them as text tables.
//
// Each figure decomposes into independent simulation runs, which the
// internal/sweep engine fans across a worker pool: -parallel uses every CPU
// core, -workers pins an exact pool size, and the default is serial
// execution. Per-run seeding makes parallel output byte-identical to serial
// output, so parallelism only changes the reported wall-clock time.
//
// With -server, the figures are still built here, but their runs execute on
// a running simd cluster instead of locally: each figure's declared runs go
// out as one batch (client.Pool), the daemons' content-addressed result
// stores answer previously computed runs instantly, and the printed figure
// text is byte-identical to local output for the same options.
//
// Examples:
//
//	paperfigs -figure all
//	paperfigs -figure all -parallel
//	paperfigs -figure 11,12,13 -workers 4
//	paperfigs -figure 7 -cycles 40000
//	paperfigs -figure tables
//	paperfigs -figure all -server http://127.0.0.1:8404
//
// Besides figures, the internal/scenario catalog runs by name or level,
// always locally: -scenarios level1 executes every level-1 recipe
// determinism-gated (each batch twice, statistics compared byte for byte)
// and exits non-zero on any invariant violation; -list-scenarios lists the
// catalog without simulating.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/server/client"
	"repro/internal/simstore"
	"repro/internal/sweep"
)

func main() { os.Exit(run()) }

// run holds main's body so that deferred cleanups (profile flushing) run on
// every exit path, including errors; os.Exit would skip them.
func run() int {
	var (
		figureFlag    = flag.String("figure", "all", "which figures to regenerate, comma-separated: 2, 3, 7, 11, 12, 13, 14, 15, 16, tables, or all")
		cyclesFlag    = flag.Uint64("cycles", 0, "override measured cycles per run (0 = default)")
		warmupFlag    = flag.Uint64("warmup", 0, "override warm-up cycles per run (0 = default)")
		seedFlag      = flag.Int64("seed", 1, "workload generator seed")
		quickFlag     = flag.Bool("quick", false, "use the reduced quick-run scale")
		parallelFlag  = flag.Bool("parallel", false, "fan each figure's runs across all CPU cores")
		workersFlag   = flag.Int("workers", 0, "exact worker-pool size (implies -parallel; 0 = serial unless -parallel)")
		progressFlag  = flag.Bool("progress", true, "report per-run progress on stderr (auto-disabled when stderr is not a terminal)")
		cpuProfile    = flag.String("cpuprofile", "", "write a CPU profile of the selected figures to this file")
		memProfile    = flag.String("memprofile", "", "write a heap profile (after the selected figures finish) to this file")
		serverFlag    = flag.String("server", "", "execute the figures' runs on simd daemon(s) at this comma-separated base URL list (e.g. http://127.0.0.1:8404,http://127.0.0.1:8405) instead of locally; each figure's runs go to the cluster as one batch, route to their owners there, and are resubmitted if a daemon dies; the daemons' parallelism is simd -workers, so -parallel/-workers are rejected")
		checkpointsOn = flag.Bool("checkpoints", false, "resume runs from checkpointed state prefixes (shared warmups, kernel boundaries) stored under -checkpoint-dir, and bank new ones; output is byte-identical, only wall-clock time changes")
		checkpointDir = flag.String("checkpoint-dir", ".repro-checkpoints", "directory of the checkpoint store used by -checkpoints")
		traceOut      = flag.String("trace-out", "", "write a Chrome trace-event JSON of every run's lifecycle phases (checkpoint probe, warmup, kernel segments, measure) to this file; load it in Perfetto or chrome://tracing. Local execution only")
		scenariosFlag = flag.String("scenarios", "", "run scenario recipes instead of figures: a level (\"level1\" runs levels up to 1), \"all\", or comma-separated names; always determinism-gated, exit 1 on any invariant violation")
		listScenarios = flag.Bool("list-scenarios", false, "list the scenario catalog (name, level, axes, description) and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		// flag stops parsing at the first non-flag, so everything after a
		// stray argument would be silently ignored.
		fmt.Fprintf(os.Stderr, "paperfigs: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		return 2
	}

	if *listScenarios {
		for _, sc := range scenario.Catalog() {
			axes := make([]string, len(sc.Axes))
			for i, a := range sc.Axes {
				axes[i] = string(a)
			}
			fmt.Printf("%-26s %s  axes=%s\n    %s\n",
				sc.Name, sc.Level, strings.Join(axes, ","), sc.Description)
		}
		return 0
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperfigs: -cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "paperfigs: -cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		// Open up front so a bad path fails before the simulation, not after.
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperfigs: -memprofile: %v\n", err)
			return 1
		}
		defer func() {
			defer f.Close()
			runtime.GC() // materialize up-to-date heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "paperfigs: -memprofile: %v\n", err)
			}
		}()
	}

	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	// In-place \r progress lines garble captured logs, so unless -progress
	// was set explicitly, emit them only when stderr is a terminal.
	showProgress := *progressFlag
	if !explicit["progress"] {
		st, err := os.Stderr.Stat()
		showProgress = err == nil && st.Mode()&os.ModeCharDevice != 0
	}

	// One description of the requested scale: figures resolve it with
	// Options, whichever engine runs them, and recipes with
	// scenario.Scale.Rescale. Seed is set unconditionally: 0 is a legal seed.
	scale := exp.FigureOptions{
		Quick:  *quickFlag,
		Cycles: *cyclesFlag,
		Warmup: *warmupFlag,
		Seed:   seedFlag,
	}

	// A flag the chosen mode would silently ignore is an error instead: a
	// daemon simulates with its own pool, checkpoint store and timelines
	// (a submitted spec carries none of them), and a recipe's level is its
	// scale.
	reject := func(mode, why string, names ...string) bool {
		for _, name := range names {
			if explicit[name] {
				fmt.Fprintf(os.Stderr, "paperfigs: -%s does not apply with %s: %s\n", name, mode, why)
				return true
			}
		}
		return false
	}
	if *serverFlag != "" && reject("-server", "the daemons execute the runs (simd -workers, their own checkpoint stores, /v1/jobs/{id}/timeline); scenarios run locally",
		"parallel", "workers", "trace-out", "checkpoints", "scenarios") {
		return 1
	}
	if *scenariosFlag != "" && reject("-scenarios", "a recipe's level sets its scale and the selection names recipes (-cycles/-warmup/-seed rescale)",
		"quick", "figure") {
		return 1
	}

	// The one local engine: every flag about how runs execute lands on this
	// Runner, and figures and scenarios are handed the same value.
	runner := &sweep.Runner{Workers: 1}
	if *parallelFlag {
		runner.Workers = runtime.GOMAXPROCS(0)
	}
	if *workersFlag > 0 {
		runner.Workers = *workersFlag
	}
	if showProgress {
		runner.OnProgress = func(p sweep.Progress) {
			progressLine(p.Done, p.Total, p.Key)
		}
	}
	var traces *obs.TraceSet
	if *traceOut != "" {
		// Open up front so a bad path fails before hours of simulation.
		probe, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperfigs: -trace-out: %v\n", err)
			return 1
		}
		probe.Close()
		traces = obs.NewTraceSet()
		runner.TraceFor = func(key string) *obs.Span {
			return traces.New(key).Start("run")
		}
	}
	var ckptMgr *checkpoint.Manager
	if *checkpointsOn {
		store, err := simstore.Open(*checkpointDir, simstore.Options{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperfigs: -checkpoints: %v\n", err)
			return 1
		}
		ckptMgr = checkpoint.NewManager(store)
		runner.Checkpointer = ckptMgr
	}
	// finish prints what the engine's attachments collected and folds their
	// failures into the exit code.
	finish := func(code int) int {
		if ckptMgr != nil {
			cs := ckptMgr.ManagerStats()
			fmt.Printf("[checkpoints: %d runs resumed, %d snapshots saved, %.1f MiB written]\n",
				cs.Hits, cs.Saves, float64(cs.Bytes)/(1<<20))
		}
		if traces != nil {
			if err := writeChromeTrace(*traceOut, traces); err != nil {
				fmt.Fprintf(os.Stderr, "paperfigs: -trace-out: %v\n", err)
				return 1
			}
			fmt.Printf("[trace: %d runs written to %s]\n", traces.Len(), *traceOut)
		}
		return code
	}

	if *scenariosFlag != "" {
		return finish(runScenarios(*scenariosFlag, runner, scale, showProgress))
	}

	var selected []string
	for _, key := range strings.Split(*figureFlag, ",") {
		switch key = strings.TrimSpace(key); key {
		case "":
		case "all":
			for _, f := range exp.Figures() {
				selected = append(selected, f.Key)
			}
		default:
			selected = append(selected, key)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "paperfigs: -figure %q selects no figures\n", *figureFlag)
		return 1
	}
	// Validate the whole selection before simulating anything: a typo or a
	// duplicate at the end of the list must not cost the runtime of the
	// figures before it.
	var figs []exp.FigureJob
	seen := map[string]bool{}
	for _, key := range selected {
		j, ok := exp.FigureByKey(key)
		if !ok {
			fmt.Fprintf(os.Stderr, "paperfigs: unknown figure %q\n", key)
			return 1
		}
		if seen[key] {
			fmt.Fprintf(os.Stderr, "paperfigs: figure %q requested twice\n", key)
			return 1
		}
		seen[key] = true
		figs = append(figs, j)
	}

	// The selection regenerates over one run set: a run an earlier figure
	// already simulated is reused, never simulated again. In -server mode the
	// runs execute on the daemon(s); verify at least one is reachable before
	// starting.
	opt := scale.Options()
	opt.Exec = runner
	if *serverFlag != "" {
		pool, err := client.NewPool(strings.Split(*serverFlag, ","))
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperfigs: -server: %v\n", err)
			return 1
		}
		if err := pool.Check(context.Background()); err != nil {
			fmt.Fprintf(os.Stderr, "paperfigs: -server: %v\n", err)
			return 1
		}
		pool.OnProgress = runner.OnProgress
		opt.Exec = pool
	}

	// Figures print one by one, each followed by its own timing line.
	failed := 0
	totalStart := time.Now()
	start := totalStart
	exp.Regenerate(figs, opt, func(j exp.FigureJob, t exp.Table, reused, simulated int, err error) {
		if err != nil {
			if showProgress {
				// An aborted sweep leaves the in-place progress line behind.
				fmt.Fprintf(os.Stderr, "\r%-56s\r", "")
			}
			// Report and continue: one failing figure must not cost the
			// remaining ones, but the exit code stays non-zero.
			fmt.Fprintf(os.Stderr, "paperfigs: %s: %v\n", j.Name, err)
			failed++
		} else {
			fmt.Println(t.Format())
			fmt.Printf("[%s regenerated in %.1fs (%d reused, %d simulated runs)]\n\n",
				j.Name, time.Since(start).Seconds(), reused, simulated)
		}
		start = time.Now()
	})
	mode := "serial"
	if *serverFlag != "" {
		mode = "server " + *serverFlag
	} else if runner.Workers > 1 {
		mode = fmt.Sprintf("%d workers", runner.Workers)
	}
	fmt.Printf("[total: %.1fs, %s]\n", time.Since(totalStart).Seconds(), mode)
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "paperfigs: %d of %d requested figures failed\n", failed, len(selected))
		return finish(1)
	}
	return finish(0)
}

// runScenarios resolves a -scenarios selection (a level, "all", or names) and
// executes each recipe on the given engine with the determinism gate on.
// Violations are printed per scenario and make the exit status non-zero;
// scale (-cycles/-warmup/-seed) rescales the level-derived run length.
func runScenarios(sel string, exec sweep.Executor, scale exp.FigureOptions, showProgress bool) int {
	var list []scenario.Scenario
	if sel == "all" {
		list = scenario.Catalog()
	} else if l, ok := scenario.ParseLevel(sel); ok {
		list = scenario.UpToLevel(l)
	} else {
		for _, name := range strings.Split(sel, ",") {
			if name = strings.TrimSpace(name); name == "" {
				continue
			}
			sc, ok := scenario.ByName(name)
			if !ok {
				fmt.Fprintf(os.Stderr, "paperfigs: unknown scenario %q (see -list-scenarios)\n", name)
				return 1
			}
			list = append(list, sc)
		}
	}
	if len(list) == 0 {
		fmt.Fprintf(os.Stderr, "paperfigs: -scenarios %q selects no scenarios\n", sel)
		return 1
	}

	failed := 0
	start := time.Now()
	for _, sc := range list {
		rescaled := sc.Level.Scale().Rescale(scale.Cycles, scale.Warmup, scale.Seed)
		rep, err := sc.Run(context.Background(), scenario.RunOptions{Exec: exec, Scale: &rescaled})
		if err != nil {
			if showProgress {
				fmt.Fprintf(os.Stderr, "\r%-56s\r", "")
			}
			fmt.Fprintf(os.Stderr, "paperfigs: scenario %s: %v\n", sc.Name, err)
			failed++
			continue
		}
		fmt.Print(rep.Format())
		if !rep.OK() {
			failed++
		}
	}
	fmt.Printf("[%d scenarios, %.1fs]\n", len(list), time.Since(start).Seconds())
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "paperfigs: %d of %d scenarios failed\n", failed, len(list))
		return 1
	}
	return 0
}

// writeChromeTrace renders the collected run traces as Chrome trace-event
// JSON at path.
func writeChromeTrace(path string, traces *obs.TraceSet) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = traces.WriteChrome(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// progressLine is the one in-place stderr progress format, shared by local
// sweeps and runs executed on a cluster so the two modes stay visually
// identical.
func progressLine(done, total int, key string) {
	fmt.Fprintf(os.Stderr, "\r  [%3d/%3d] %-40s", done, total, key)
	if done == total {
		fmt.Fprintf(os.Stderr, "\r%-56s\r", "")
	}
}
