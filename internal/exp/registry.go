package exp

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/simstore"
	"repro/internal/sweep"
)

// FigureJob is one regenerable unit of the paper's evaluation: a key (the
// figure number, or "tables"), a human-readable name, the runs it needs and
// the table it builds over their statistics. The registry is the single
// catalog shared by cmd/paperfigs and the simd figure endpoint, so both
// always agree on which figures exist and produce byte-identical text for
// equal Options.
type FigureJob struct {
	Key  string
	Name string
	// Specs declares every independent run the figure needs, keyed uniquely
	// within the figure. Nil for entries that simulate nothing (the tables).
	Specs func(Options) []sweep.RunSpec
	// Table builds the figure from the statistics of the declared runs, keyed
	// by RunSpec.Key.
	Table func(Options, map[string]gpu.RunStats) (Table, error)
}

// Figures returns every regenerable figure and table, in paper order.
func Figures() []FigureJob {
	return []FigureJob{
		{Key: "tables", Name: "Tables 1 and 2", Table: tables},
		{Key: "2", Name: "Figure 2", Specs: figure2Specs, Table: figure2Table},
		{Key: "3", Name: "Figure 3", Specs: figure3Specs, Table: figure3Table},
		{Key: "7", Name: "Figure 7", Specs: figure7Specs, Table: figure7Table},
		{Key: "11", Name: "Figure 11", Specs: figure11Specs, Table: figure11Table},
		{Key: "12", Name: "Figure 12", Specs: figure12Specs, Table: figure12Table},
		{Key: "13", Name: "Figure 13", Specs: figure13Specs, Table: figure13Table},
		{Key: "14", Name: "Figure 14", Specs: figure14Specs, Table: figure14Table},
		{Key: "15", Name: "Figure 15", Specs: figure15Specs, Table: figure15Table},
		{Key: "16", Name: "Figure 16", Specs: figure16Specs, Table: figure16Table},
	}
}

// FigureByKey looks up a registry entry by its key.
func FigureByKey(key string) (FigureJob, bool) {
	for _, f := range Figures() {
		if f.Key == key {
			return f, true
		}
	}
	return FigureJob{}, false
}

// Run regenerates the figure on its own and returns its text: declare, run
// every declared spec through Options.runAll, build the table, format it.
func (f FigureJob) Run(o Options) (string, error) {
	t, err := f.tabulate(o, o.runAll)
	if err != nil {
		return "", err
	}
	return t.Format(), nil
}

// tabulate is the one path from a registry entry to its table; run is what
// turns the declared specs into positional statistics.
func (f FigureJob) tabulate(o Options, run func([]sweep.RunSpec) ([]gpu.RunStats, error)) (Table, error) {
	var stats map[string]gpu.RunStats
	if f.Specs != nil {
		specs := f.Specs(o)
		results, err := run(specs)
		if err != nil {
			return Table{}, fmt.Errorf("figure%s: %w", f.Key, err)
		}
		stats = make(map[string]gpu.RunStats, len(specs))
		for i, s := range specs {
			if _, dup := stats[s.Key]; dup {
				// A key collision would silently overwrite one run's statistics
				// with another's and render plausible but wrong figures.
				return Table{}, fmt.Errorf("exp: duplicate run key %q", s.Key)
			}
			stats[s.Key] = results[i]
		}
	}
	return f.Table(o, stats)
}

// Regenerate produces the given figures in order over one run set and hands
// each to emit as soon as it is done, with the number of its declared runs
// that were reused and simulated. The figures of the evaluation slice one
// grid of runs, so before a figure's batch goes to the executor, specs whose
// simstore.Fingerprint — the identity under which the simd store and the
// checkpoint keys already treat two runs as the same simulation — was
// produced earlier in this call are answered from memory, and duplicates
// inside the batch collapse to one run. The run set lives for this call only:
// a second call simulates everything again. A failing figure is reported
// through emit's err and does not stop the ones after it.
func Regenerate(figs []FigureJob, o Options, emit func(f FigureJob, t Table, reused, simulated int, err error)) {
	set := &runSet{o: o, done: map[[32]byte]gpu.RunStats{}}
	for _, f := range figs {
		set.reused, set.simulated = 0, 0
		t, err := f.tabulate(o, set.run)
		emit(f, t, set.reused, set.simulated, err)
	}
}

// runSet is the memory of one Regenerate call: the statistics of every run
// simulated so far by fingerprint, and how the latest batch split.
type runSet struct {
	o                 Options
	done              map[[32]byte]gpu.RunStats
	reused, simulated int
}

// run answers a batch positionally, handing Options.runAll only the specs
// whose fingerprint is neither in the set nor earlier in the batch.
func (s *runSet) run(specs []sweep.RunSpec) ([]gpu.RunStats, error) {
	fps := make([][32]byte, len(specs))
	var todo []sweep.RunSpec
	var todoAt []int
	queued := map[[32]byte]bool{}
	for i, spec := range specs {
		fp, err := simstore.Fingerprint(spec)
		if err != nil {
			return nil, err
		}
		fps[i] = fp
		if _, have := s.done[fp]; !have && !queued[fp] {
			queued[fp] = true
			todo = append(todo, spec)
			todoAt = append(todoAt, i)
		}
	}
	if len(todo) > 0 {
		fresh, err := s.o.runAll(todo)
		if err != nil {
			return nil, err
		}
		for j, i := range todoAt {
			s.done[fps[i]] = fresh[j]
		}
	}
	s.simulated, s.reused = len(todo), len(specs)-len(todo)
	stats := make([]gpu.RunStats, len(specs))
	for i, fp := range fps {
		stats[i] = s.done[fp]
	}
	return stats, nil
}
