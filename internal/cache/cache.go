// Package cache provides the set-associative cache models used throughout
// the simulator: the per-SM L1 data caches, the memory-side LLC slices and
// the Auxiliary Tag Directory (ATD) that the adaptive-LLC controller uses to
// estimate the private-LLC miss rate via dynamic set sampling (paper §4.4).
//
// The cache model is a tag store only — data payloads are not simulated.
// It supports LRU replacement, write-back and write-through policies,
// per-line sharer tracking (which SM cluster last touched a line, and the
// set of clusters that touched it), and flush/invalidate operations needed
// for the shared↔private reconfiguration sequence.
package cache

import (
	"fmt"
	"math/bits"
)

// WritePolicy selects how stores are handled.
type WritePolicy int

const (
	// WriteBack keeps dirty lines in the cache and writes them to the next
	// level only on eviction (conventional shared-LLC behaviour).
	WriteBack WritePolicy = iota
	// WriteThrough forwards every store to the next level immediately and
	// never holds a dirty line. The paper requires the LLC to operate
	// write-through when configured as a private cache so that
	// software-based coherence keeps working (§4.1, "Coherence Implications").
	WriteThrough
)

func (w WritePolicy) String() string {
	if w == WriteThrough {
		return "write-through"
	}
	return "write-back"
}

// AccessKind distinguishes loads from stores.
type AccessKind int

const (
	Read AccessKind = iota
	Write
)

func (k AccessKind) String() string {
	if k == Write {
		return "write"
	}
	return "read"
}

// Result describes the outcome of a cache access.
type Result struct {
	Hit          bool
	Evicted      bool   // a valid line was evicted to make room
	WritebackReq bool   // the evicted line was dirty and must be written back
	EvictedAddr  uint64 // line-aligned address of the evicted line (valid if Evicted)
	Insertion    bool   // the access allocated a new line
	Dirty        bool   // line is dirty after the access
}

// Stats accumulates access statistics.
type Stats struct {
	Accesses    uint64
	Hits        uint64
	Misses      uint64
	Reads       uint64
	Writes      uint64
	ReadMisses  uint64
	WriteMisses uint64
	Evictions   uint64
	Writebacks  uint64
}

// MissRate returns misses/accesses, or 0 for an idle cache.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// HitRate returns hits/accesses, or 0 for an idle cache.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Accesses += other.Accesses
	s.Hits += other.Hits
	s.Misses += other.Misses
	s.Reads += other.Reads
	s.Writes += other.Writes
	s.ReadMisses += other.ReadMisses
	s.WriteMisses += other.WriteMisses
	s.Evictions += other.Evictions
	s.Writebacks += other.Writebacks
}

type line struct {
	valid   bool
	dirty   bool
	tag     uint64
	lastUse uint64 // LRU timestamp
	// sharers is a bitmask of cluster IDs that accessed this line while it
	// was resident; used for the inter-cluster locality characterization
	// (paper Figure 3).
	sharers uint64
	// lastCluster is the cluster that most recently touched the line.
	lastCluster int
}

// Config describes one cache structure.
type Config struct {
	SizeBytes int
	Ways      int
	LineBytes int
	Policy    WritePolicy
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int {
	if c.Ways == 0 || c.LineBytes == 0 {
		return 0
	}
	return c.SizeBytes / (c.Ways * c.LineBytes)
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("cache: size/ways/line must be positive, got %d/%d/%d", c.SizeBytes, c.Ways, c.LineBytes)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: LineBytes must be a power of two, got %d", c.LineBytes)
	}
	if c.SizeBytes%(c.Ways*c.LineBytes) != 0 {
		return fmt.Errorf("cache: SizeBytes (%d) not a multiple of Ways*LineBytes (%d)", c.SizeBytes, c.Ways*c.LineBytes)
	}
	return nil
}

// Cache is a set-associative, LRU tag store. It is not safe for concurrent
// use; each cache instance belongs to exactly one simulated component.
type Cache struct {
	cfg       Config
	sets      [][]line
	nsets     int
	clock     uint64
	stats     Stats
	lineShift uint
	// lines backs sets (set-major). touched has a bit per line slot
	// (set*ways + way), set when a cluster touches the slot and cleared by
	// ResetSharers: every line with a non-empty sharer set has its bit set,
	// so the sharing histogram visits what the window touched, not the
	// whole cache.
	lines   []line
	touched []uint64
}

// New creates a cache. It panics if the configuration is invalid — caches
// are constructed from validated top-level configs, so an invalid one is a
// programming error.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.Sets()
	sets := make([][]line, nsets)
	lines := make([]line, nsets*cfg.Ways)
	backing := lines
	for i := range sets {
		sets[i], backing = backing[:cfg.Ways], backing[cfg.Ways:]
	}
	shift := uint(0)
	for l := cfg.LineBytes; l > 1; l >>= 1 {
		shift++
	}
	return &Cache{cfg: cfg, sets: sets, nsets: nsets, lineShift: shift,
		lines: lines, touched: make([]uint64, (len(lines)+63)/64)}
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.nsets }

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats clears the statistics counters without touching cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// LineAddr returns the line-aligned address for addr.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr &^ (uint64(c.cfg.LineBytes) - 1)
}

// setIndex maps a line address to a set using multiplicative hashing.
// Hashing decorrelates the set index from the address bits the memory-side
// interleaving (channel/slice selection) already consumed; with a plain
// modulo index, the lines homed on one LLC slice would cluster in a handful
// of its sets and waste most of its capacity. Non-power-of-two set counts
// (the paper's 48-set slices) are supported naturally.
func (c *Cache) setIndex(lineAddr uint64) int {
	return SetIndex(lineAddr>>c.lineShift, c.nsets)
}

// SetIndex hashes a line number into one of nsets cache sets. It is shared
// by the Cache and the ATD so that set sampling observes the same sets the
// real slice uses.
func SetIndex(lineNumber uint64, nsets int) int {
	h := lineNumber * 0x9E3779B97F4A7C15
	return int((h >> 24) % uint64(nsets))
}

// Access performs a read or write access by the given cluster and returns
// the outcome. `cluster` may be -1 when sharer tracking is not meaningful
// (e.g. for L1 caches).
func (c *Cache) Access(addr uint64, kind AccessKind, cluster int) Result {
	c.clock++
	lineAddr := c.LineAddr(addr)
	tag := lineAddr >> c.lineShift
	si := c.setIndex(lineAddr)
	set := c.sets[si]

	c.stats.Accesses++
	if kind == Write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}

	// Hit path.
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.stats.Hits++
			set[i].lastUse = c.clock
			if cluster >= 0 {
				c.touch(si*c.cfg.Ways + i)
				set[i].sharers |= 1 << uint(cluster)
				set[i].lastCluster = cluster
			}
			res := Result{Hit: true}
			if kind == Write {
				if c.cfg.Policy == WriteBack {
					set[i].dirty = true
				}
				res.Dirty = set[i].dirty
				if c.cfg.Policy == WriteThrough {
					res.WritebackReq = true // forwarded to next level immediately
				}
			}
			return res
		}
	}

	// Miss path.
	c.stats.Misses++
	if kind == Write {
		c.stats.WriteMisses++
	} else {
		c.stats.ReadMisses++
	}

	victim := c.findVictim(set)
	res := Result{Insertion: true}
	if set[victim].valid {
		c.stats.Evictions++
		res.Evicted = true
		res.EvictedAddr = set[victim].tag << c.lineShift
		if set[victim].dirty {
			c.stats.Writebacks++
			res.WritebackReq = true
		}
	}
	set[victim] = line{
		valid:   true,
		tag:     tag,
		lastUse: c.clock,
	}
	if cluster >= 0 {
		c.touch(si*c.cfg.Ways + victim)
		set[victim].sharers = 1 << uint(cluster)
		set[victim].lastCluster = cluster
	}
	if kind == Write {
		if c.cfg.Policy == WriteBack {
			set[victim].dirty = true
			res.Dirty = true
		} else {
			// Write-through, write-allocate: line is inserted clean, the
			// store itself is forwarded to the next level by the caller.
			res.WritebackReq = true
		}
	}
	return res
}

// Probe reports whether addr currently hits without updating LRU state or
// statistics.
func (c *Cache) Probe(addr uint64) bool {
	lineAddr := c.LineAddr(addr)
	tag := lineAddr >> c.lineShift
	set := c.sets[c.setIndex(lineAddr)]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// Invalidate removes the line containing addr, returning whether it was
// present and whether it was dirty.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	lineAddr := c.LineAddr(addr)
	tag := lineAddr >> c.lineShift
	set := c.sets[c.setIndex(lineAddr)]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			present, dirty = true, set[i].dirty
			set[i] = line{}
			return
		}
	}
	return false, false
}

// FlushAll invalidates every line and returns the number of valid lines
// flushed and how many of them were dirty (and therefore require a
// write-back to the next level before the flush completes). This is the
// operation performed when the LLC transitions between shared and private
// organizations.
func (c *Cache) FlushAll() (valid, dirty int) {
	for s := range c.sets {
		for w := range c.sets[s] {
			if c.sets[s][w].valid {
				valid++
				if c.sets[s][w].dirty {
					dirty++
				}
			}
			c.sets[s][w] = line{}
		}
	}
	clear(c.touched)
	return valid, dirty
}

// DirtyLines returns the number of dirty lines currently resident.
func (c *Cache) DirtyLines() int {
	n := 0
	for s := range c.sets {
		for w := range c.sets[s] {
			if c.sets[s][w].valid && c.sets[s][w].dirty {
				n++
			}
		}
	}
	return n
}

// ValidLines returns the number of valid lines currently resident.
func (c *Cache) ValidLines() int {
	n := 0
	for s := range c.sets {
		for w := range c.sets[s] {
			if c.sets[s][w].valid {
				n++
			}
		}
	}
	return n
}

// findVictim returns the way index of the LRU victim, preferring invalid ways.
func (c *Cache) findVictim(set []line) int {
	victim := 0
	var oldest uint64 = ^uint64(0)
	for i := range set {
		if !set[i].valid {
			return i
		}
		if set[i].lastUse < oldest {
			oldest = set[i].lastUse
			victim = i
		}
	}
	return victim
}

// SharerHistogram classifies the resident lines that were accessed since the
// last ResetSharers by how many distinct clusters accessed them, bucketed as
// the paper's Figure 3: exactly 1 cluster, exactly 2, 3–4, and 5–8 (or
// more). Lines that were not accessed in the window are excluded. It returns
// the four bucket counts and the total number of lines considered.
func (c *Cache) SharerHistogram() (one, two, threeFour, fivePlus, total int) {
	for w, word := range c.touched {
		for ; word != 0; word &= word - 1 {
			l := &c.lines[w*64+bits.TrailingZeros64(word)]
			if !l.valid || l.sharers == 0 {
				continue // invalidated since it was touched
			}
			total++
			switch n := bits.OnesCount64(l.sharers); {
			case n <= 1:
				one++
			case n == 2:
				two++
			case n <= 4:
				threeFour++
			default:
				fivePlus++
			}
		}
	}
	return
}

// ResetSharers clears the per-line sharer bitmasks (used at the start of
// each locality-measurement window).
func (c *Cache) ResetSharers() {
	for w, word := range c.touched {
		for ; word != 0; word &= word - 1 {
			c.lines[w*64+bits.TrailingZeros64(word)].sharers = 0
		}
		c.touched[w] = 0
	}
}

// touch marks a line slot (set*ways + way) as touched in this window.
func (c *Cache) touch(slot int) { c.touched[slot>>6] |= 1 << (slot & 63) }
