package workload

import (
	"fmt"

	"repro/internal/config"
)

// appSettable is implemented by programs that can relocate their address
// space for multi-program co-execution (Generator, trace.Player).
type appSettable interface {
	SetApp(appID int)
}

// MultiProgram co-executes several programs on one GPU for the
// multi-program evaluation (paper §6.3, Figure 15). SMs are divided within
// each cluster so that every application runs on a share of every cluster,
// which lets every application reach the entire LLC capacity while the
// cluster-level load stays balanced — the mapping recommended by the paper
// (Figure 9).
//
// The co-running programs are arbitrary: synthetic generators, trace
// players, or a mix of both (NewMultiProgramMixed).
type MultiProgram struct {
	progs []Program
	smApp []int // application index for each SM
}

// NewMultiProgram builds a co-execution of the given synthetic specs. The
// SMs of each cluster are split evenly (in catalog order) between the
// applications.
func NewMultiProgram(specs []Spec, cfg config.Config, seed int64) (*MultiProgram, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("workload: multi-program needs at least one spec")
	}
	progs := make([]Program, len(specs))
	for i, spec := range specs {
		g, err := NewGenerator(spec, cfg, seed+int64(i)*7919)
		if err != nil {
			return nil, err
		}
		progs[i] = g
	}
	return NewMultiProgramMixed(progs, cfg)
}

// NewMultiProgramMixed builds a co-execution of arbitrary programs —
// synthetic generators, trace players, or a mix. Programs that implement
// SetApp (all of the above) are assigned disjoint address spaces; programs
// that do not must already use non-overlapping addresses.
func NewMultiProgramMixed(progs []Program, cfg config.Config) (*MultiProgram, error) {
	if len(progs) == 0 {
		return nil, fmt.Errorf("workload: multi-program needs at least one program")
	}
	for i, p := range progs {
		if p == nil {
			return nil, fmt.Errorf("workload: multi-program: nil program at index %d", i)
		}
	}
	smsPerCluster := cfg.SMsPerCluster()
	if smsPerCluster < len(progs) {
		return nil, fmt.Errorf("workload: %d apps need at least %d SMs per cluster, have %d",
			len(progs), len(progs), smsPerCluster)
	}
	m := &MultiProgram{progs: progs, smApp: make([]int, cfg.NumSMs)}
	for i, p := range progs {
		if s, ok := p.(appSettable); ok {
			s.SetApp(i)
		}
	}
	// Within each cluster, SM j runs application j*len(progs)/smsPerCluster.
	for sm := 0; sm < cfg.NumSMs; sm++ {
		local := sm % smsPerCluster
		app := local * len(progs) / smsPerCluster
		if app >= len(progs) {
			app = len(progs) - 1
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

// Kernel implements Program.
func (m *MultiProgram) Kernel() int { return m.progs[0].Kernel() }

// AppOf returns the application index running on the given SM.
func (m *MultiProgram) AppOf(sm int) int { return m.smApp[sm] }

// Apps returns the number of co-executing applications.
func (m *MultiProgram) Apps() int { return len(m.progs) }
