package workload

import (
	"fmt"

	"repro/internal/config"
)

// MultiProgram co-executes several generators on one GPU for the
// multi-program evaluation (paper §6.3, Figure 15). SMs are divided within
// each cluster so that every application runs on a share of every cluster,
// which lets every application reach the entire LLC capacity while the
// cluster-level load stays balanced — the mapping recommended by the paper
// (Figure 9).
type MultiProgram struct {
	progs []*Generator
	smApp []int // application index for each SM
}

// NewMultiProgram builds a co-execution of the given synthetic specs, each
// generator in its own address space. The SMs of each cluster are split
// evenly (in catalog order) between the applications.
func NewMultiProgram(specs []Spec, cfg config.Config, seed int64) (*MultiProgram, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("workload: multi-program needs at least one spec")
	}
	smsPerCluster := cfg.SMsPerCluster()
	if smsPerCluster < len(specs) {
		return nil, fmt.Errorf("workload: %d apps need at least %d SMs per cluster, have %d",
			len(specs), len(specs), smsPerCluster)
	}
	m := &MultiProgram{progs: make([]*Generator, len(specs)), smApp: make([]int, cfg.NumSMs)}
	for i, spec := range specs {
		g, err := NewGenerator(spec, cfg, seed+int64(i)*7919)
		if err != nil {
			return nil, err
		}
		g.SetApp(i)
		m.progs[i] = g
	}
	// Within each cluster, SM j runs application j*len(specs)/smsPerCluster.
	for sm := 0; sm < cfg.NumSMs; sm++ {
		local := sm % smsPerCluster
		app := local * len(specs) / smsPerCluster
		if app >= len(specs) {
			app = len(specs) - 1
		}
		m.smApp[sm] = app
	}
	return m, nil
}

// NextOp implements Program.
func (m *MultiProgram) NextOp(sm, warpSlot int) Op {
	return m.progs[m.smApp[sm]].NextOp(sm, warpSlot)
}

// NextKernel implements Program.
func (m *MultiProgram) NextKernel() {
	for _, p := range m.progs {
		p.NextKernel()
	}
}

// AppOf returns the application index running on the given SM.
func (m *MultiProgram) AppOf(sm int) int { return m.smApp[sm] }

// Apps returns the number of co-executing applications.
func (m *MultiProgram) Apps() int { return len(m.progs) }
