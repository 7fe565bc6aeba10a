package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/obs"
)

// runOptions are one invocation's knobs.
type runOptions struct {
	Seed    int64
	Seconds int
	Traced  bool
	// Scratch is the directory, inside the checkout, that holds temp stores
	// and trace files.
	Scratch string
	// Samples, when set, is a file a timed run writes every raw timing
	// sample to.
	Samples string
}

// rounder runs one round of some kind into o.
type rounder func(e *env, o *roundOut) error

// rounderFor prepares the round function of one kind at the workload's own
// sizes (own) or at miniature sizes. Preparing the sweep round writes the
// store's history and preparing the service round simulates its hit set;
// both are input generation, not set-up.
func rounderFor(e *env, def workloadDef, kind string, own bool) (rounder, error) {
	switch kind {
	case srcGPU:
		z := miniGPU(def.Rep)
		if own {
			z = def.GPU
		}
		return func(e *env, o *roundOut) error { return gpuRound(e, z, o) }, nil
	case srcSweep:
		z := miniSweep(def.Rep)
		if own {
			z = def.Sweep
		}
		dir, err := newSweepStore(e, z)
		if err != nil {
			return nil, err
		}
		return func(e *env, o *roundOut) error { return sweepRound(e, z, dir, o) }, nil
	case srcService:
		z := miniService
		if own {
			z = def.Service
		}
		in, err := makeServiceInputs(e, z)
		if err != nil {
			return nil, err
		}
		return func(e *env, o *roundOut) error { return serviceRound(e, z, in, o) }, nil
	}
	return nil, fmt.Errorf("unknown round kind %q", kind)
}

// runWorkload runs one workload once.
//
// Untraced, it repeats the workload's round until the next one would not fit
// in opt.Seconds, and reports the end-to-end metrics as medians over all
// rounds. Traced, it runs the round once untraced and once traced (their
// difference is the tracing overhead), then a traced miniature of every
// other kind of round and the probes, reports the per-layer metrics and
// writes the spans to trace-<workload>.json.
func runWorkload(def workloadDef, opt runOptions) (WorkloadResult, error) {
	start := time.Now()
	res := WorkloadResult{Workload: def.Name, Seed: opt.Seed, Traced: opt.Traced,
		Metrics: map[string]Metric{}, Notes: map[string]string{}}
	if err := os.MkdirAll(opt.Scratch, 0o755); err != nil {
		return res, err
	}
	dir, err := os.MkdirTemp(opt.Scratch, "run-*")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	e := &env{seed: opt.Seed, cpus: runtime.NumCPU(), dir: dir}

	own, err := rounderFor(e, def, def.Kind, true)
	if err != nil {
		return res, err
	}
	o := newRoundOut()
	budget := time.Duration(opt.Seconds) * time.Second
	var last time.Duration
	for {
		t0 := time.Now()
		if err := own(e, o); err != nil {
			return res, err
		}
		last = time.Since(t0)
		if opt.Traced || time.Since(start)+last+last/10 > budget {
			break
		}
	}

	if opt.Traced {
		// Everything measured from here on is reported per layer. The round
		// above ran in a cold process and only warmed it up; the overhead
		// figure compares the traced round with an untraced one after it.
		warm := o
		o = newRoundOut()
		traces := obs.NewTraceSet()
		e.traces = traces
		t0 := time.Now()
		if err := own(e, o); err != nil {
			return res, err
		}
		traced := time.Since(t0) - o.probing
		e.traces = nil
		t0 = time.Now()
		if err := own(e, warm); err != nil {
			return res, err
		}
		untraced := time.Since(t0)
		o.obs("trace.overhead_pct", 100*ratio(float64(traced-untraced), float64(untraced)))
		o.ops, o.failed, o.checks = o.ops+warm.ops, o.failed+warm.failed, append(o.checks, warm.checks...)
		e.traces = traces
		for _, kind := range []string{srcGPU, srcSweep, srcService} {
			if kind == def.Kind {
				continue
			}
			mini, err := rounderFor(e, def, kind, false)
			if err != nil {
				return res, err
			}
			// A miniature has its own statistics; keep the workload's digest.
			mo := newRoundOut()
			mo.layer = o.layer
			if err := mini(e, mo); err != nil {
				return res, err
			}
			o.ops, o.failed, o.checks = o.ops+mo.ops, o.failed+mo.failed, append(o.checks, mo.checks...)
		}
		rep, err := repSpec(def.Rep, opt.Seed)
		if err != nil {
			return res, err
		}
		if err := runProbes(e, rep, o); err != nil {
			return res, err
		}
		if hit, handler := o.layer[hitP50Key], o.layer["server.handler_hit_us"]; len(hit) > 0 && len(handler) > 0 {
			o.obs("client.roundtrip_overhead_us", median(hit)*1e3-median(handler))
		}
		path := filepath.Join(opt.Scratch, "trace-"+def.Name+".json")
		if err := writeTrace(path, e.traces); err != nil {
			return res, err
		}
		res.Notes["trace_file"] = path
	}

	if opt.Traced {
		for _, d := range perLayer {
			vals := o.layer[d.Name]
			if len(vals) == 0 {
				o.fail("per-layer metric %s was not measured", d.Name)
			}
			res.Metrics[d.Name] = Metric{Value: median(vals), Unit: d.Unit, Samples: len(vals)}
		}
	} else {
		if opt.Samples != "" {
			// Host seconds of every repeat of every unit of work, for
			// judging the estimator itself (bench/README.md, "Calibration").
			data, err := json.Marshal(map[string]map[string][]float64{"setup_s": o.setup.secs, "main_per_s": o.main.secs,
				"main_op_ms": o.latency().secs, "alt_per_s": o.alt.secs, "write_per_s": o.write.secs})
			if err == nil {
				err = os.WriteFile(opt.Samples, data, 0o644)
			}
			if err != nil {
				return res, err
			}
		}
		for name, m := range map[string]Metric{
			"setup_s":       {Value: o.setup.typical(), Samples: o.setup.samples()},
			"main_per_s":    {Value: o.main.rate(), Samples: o.main.samples()},
			"main_op_ms":    {Value: o.latency().typical() * 1e3, Samples: o.latency().samples()},
			"alt_per_s":     {Value: o.alt.rate(), Samples: o.alt.samples()},
			"write_per_s":   {Value: o.write.rate(), Samples: o.write.samples()},
			"host_alloc_mb": {Value: median(o.allocMB), Samples: len(o.allocMB)},
		} {
			d, _ := findMetric(endToEnd, name)
			if m.Samples == 0 || m.Value <= 0 {
				o.fail("end-to-end metric %s was not measured", name)
			}
			m.Unit = d.Unit
			res.Metrics[name] = m
		}
	}
	for k, v := range o.notes {
		res.Notes[k] = v
	}
	res.Rounds = o.rounds
	res.OpsAttempted, res.OpsFailed = o.ops, min(o.failed, o.ops)
	res.FailedChecks = o.checks
	res.StatsDigest, res.Counters = o.digestHex, o.counters
	res.WallS = time.Since(start).Seconds()
	return res, nil
}

// writeTrace writes the collected spans as Chrome trace-event JSON.
func writeTrace(path string, ts *obs.TraceSet) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ts.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
