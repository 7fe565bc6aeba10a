package cache

// ATD is the Auxiliary Tag Directory used for dynamic set sampling
// (paper §4.4). While the LLC runs in shared mode, the ATD shadows a small
// number of sampled sets of a single LLC slice. Each ATD entry holds a tag
// plus the identity of the SM-router (cluster) that last accessed the line.
//
// The ATD estimates what the miss rate *would be* under a private LLC
// organization: an access counts as a private-mode hit only if it hits in
// the ATD *and* originates from the same cluster that last touched the
// line — because under private caching a different cluster would have its
// own copy (or miss) in its own slice.
//
// The paper sizes the ATD at 8 sampled sets of one 16-way slice, for a
// hardware budget of 432 bytes; HardwareBytes reproduces that arithmetic so
// the budget claim is testable.
type ATD struct {
	sampledSets int
	ways        int
	lineShift   uint
	setsInSlice int
	numClusters int

	sets  [][]atdEntry
	clock uint64

	accesses    uint64 // accesses that mapped to a sampled set
	sharedHits  uint64 // hits ignoring cluster identity (shared-LLC behaviour)
	privateHits uint64 // hits from the same cluster as the last accessor
}

type atdEntry struct {
	valid       bool
	tag         uint64
	lastUse     uint64
	lastCluster int
}

// NewATD creates an ATD that samples sampledSets out of setsInSlice sets of
// a ways-associative slice with the given line size.
func NewATD(sampledSets, setsInSlice, ways, lineBytes, numClusters int) *ATD {
	if sampledSets <= 0 || setsInSlice <= 0 || ways <= 0 || lineBytes <= 0 {
		panic("cache: invalid ATD parameters")
	}
	if sampledSets > setsInSlice {
		sampledSets = setsInSlice
	}
	shift := uint(0)
	for l := lineBytes; l > 1; l >>= 1 {
		shift++
	}
	sets := make([][]atdEntry, sampledSets)
	backing := make([]atdEntry, sampledSets*ways)
	for i := range sets {
		sets[i], backing = backing[:ways], backing[ways:]
	}
	return &ATD{
		sampledSets: sampledSets,
		ways:        ways,
		lineShift:   shift,
		setsInSlice: setsInSlice,
		numClusters: numClusters,
		sets:        sets,
	}
}

// HardwareBytes returns the storage cost of the ATD: per entry, a tag
// (assumed 4 bytes as in the paper's accounting) plus one bit per cluster
// (SM-router) to record the last accessor, rounded up to whole bytes per
// entry. For 8 sets × 16 ways × (4 B + 8 bits) = 128 × (4+1.375) ≈ 432 B
// with the paper's 8 clusters and a few valid/LRU bits folded in.
func (a *ATD) HardwareBytes() int {
	entries := a.sampledSets * a.ways
	bitsPerEntry := 32 + a.numClusters + 3 // tag + sharer-id bits + valid/LRU bits
	return (entries*bitsPerEntry + 7) / 8
}

// sampleStride returns how sets are sampled: every (setsInSlice/sampledSets)-th
// set of the slice is shadowed.
func (a *ATD) sampleStride() int {
	s := a.setsInSlice / a.sampledSets
	if s == 0 {
		s = 1
	}
	return s
}

// Sampled reports whether the slice set index for addr falls on a sampled set.
func (a *ATD) Sampled(addr uint64) bool {
	sliceSet := SetIndex(addr>>a.lineShift, a.setsInSlice)
	return sliceSet%a.sampleStride() == 0 && sliceSet/a.sampleStride() < a.sampledSets
}

// Access records an access from the given cluster. Only accesses mapping to
// a sampled set update the ATD; others are ignored. It returns whether the
// access was sampled.
func (a *ATD) Access(addr uint64, cluster int) bool {
	sliceSet := SetIndex(addr>>a.lineShift, a.setsInSlice)
	stride := a.sampleStride()
	if sliceSet%stride != 0 {
		return false
	}
	idx := sliceSet / stride
	if idx >= a.sampledSets {
		return false
	}
	a.clock++
	a.accesses++
	tag := addr >> a.lineShift
	set := a.sets[idx]

	for i := range set {
		if set[i].valid && set[i].tag == tag {
			a.sharedHits++
			if set[i].lastCluster == cluster {
				a.privateHits++
			}
			set[i].lastUse = a.clock
			set[i].lastCluster = cluster
			return true
		}
	}
	// Miss: install with LRU replacement.
	victim := 0
	var oldest uint64 = ^uint64(0)
	for i := range set {
		if !set[i].valid {
			victim = i
			oldest = 0
			break
		}
		if set[i].lastUse < oldest {
			oldest = set[i].lastUse
			victim = i
		}
	}
	set[victim] = atdEntry{valid: true, tag: tag, lastUse: a.clock, lastCluster: cluster}
	return true
}

// SampledAccesses returns the number of accesses that hit a sampled set.
func (a *ATD) SampledAccesses() uint64 { return a.accesses }

// SharedMissRate returns the estimated shared-LLC miss rate over the
// sampled sets.
func (a *ATD) SharedMissRate() float64 {
	if a.accesses == 0 {
		return 0
	}
	return 1 - float64(a.sharedHits)/float64(a.accesses)
}

// PrivateMissRate returns the estimated private-LLC miss rate over the
// sampled sets: an access only counts as a hit if the previous access to
// that line came from the same cluster.
func (a *ATD) PrivateMissRate() float64 {
	if a.accesses == 0 {
		return 0
	}
	return 1 - float64(a.privateHits)/float64(a.accesses)
}

// Reset clears the ATD contents and counters for a new profiling window.
func (a *ATD) Reset() {
	for s := range a.sets {
		for w := range a.sets[s] {
			a.sets[s][w] = atdEntry{}
		}
	}
	a.accesses, a.sharedHits, a.privateHits = 0, 0, 0
	a.clock = 0
}
