package scenario

import (
	"strings"
	"testing"

	"repro/internal/config"
)

// FuzzScenario is the property-based workload fuzzer: arbitrary bytes decode
// (via CaseFromBytes, always successfully) into a random workload mix, LLC
// organization, and optional checkpoint-resume pass, and every decoded case
// must satisfy the cross-cutting invariants checked by FuzzCase.Check —
// determinism, stat sanity, fingerprint stability, checkpoint-resume
// transparency. The committed corpus under testdata/fuzz runs as part of the
// plain unit-test suite; CI additionally fuzzes for 30 s per push.
func FuzzScenario(f *testing.F) {
	// Inline seeds complementing the committed corpus: the zero case and one
	// byte string per major branch of the decoder.
	f.Add([]byte{})
	f.Add([]byte{0x01})                                                                   // two programs
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x02\x00\x01\x01")) // adaptive, discarded trace picks
	f.Add([]byte("\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x01")) // adaptive, 3 kernels, checkpoint resume
	f.Fuzz(func(t *testing.T, data []byte) {
		c := CaseFromBytes(data)
		if vs := c.Check(); len(vs) > 0 {
			t.Fatalf("case %+v violated %d invariants:\n  %s",
				c, len(vs), strings.Join(vs, "\n  "))
		}
	})
}

// TestCaseFromBytesAlwaysValid checks the decoder's clamping contract on
// adversarial inputs without paying for a simulation.
func TestCaseFromBytesAlwaysValid(t *testing.T) {
	inputs := [][]byte{
		nil,
		{},
		{0xff},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		[]byte(strings.Repeat("\xa5\x5a", 40)),
	}
	for _, in := range inputs {
		c := CaseFromBytes(in)
		if len(c.Specs) < 1 || len(c.Specs) > 2 {
			t.Fatalf("input %x: %d specs", in, len(c.Specs))
		}
		for _, s := range c.Specs {
			if err := s.Validate(); err != nil {
				t.Errorf("input %x: invalid spec: %v", in, err)
			}
		}
		if len(c.AppModes) > 0 {
			if len(c.Specs) != 2 || c.Mode == config.LLCAdaptive {
				t.Errorf("input %x: AppModes generated for an unsupported combination", in)
			}
		}
		cfg := MicroConfig(c.Mode)
		if err := cfg.Validate(); err != nil {
			t.Errorf("MicroConfig(%v) invalid: %v", c.Mode, err)
		}
	}
}

// TestMicroConfigATDEdge pins the property MicroConfig exists to exercise:
// its slices are so small the ATD samples every set.
func TestMicroConfigATDEdge(t *testing.T) {
	cfg := MicroConfig(config.LLCAdaptive)
	if cfg.ATDSampledSets != cfg.LLCSetsPerSlice() {
		t.Errorf("ATDSampledSets = %d, want the full %d sets per slice",
			cfg.ATDSampledSets, cfg.LLCSetsPerSlice())
	}
}
