// Package cache provides the set-associative cache models used throughout
// the simulator: the per-SM L1 data caches, the memory-side LLC slices and
// the Auxiliary Tag Directory (ATD) that the adaptive-LLC controller uses to
// estimate the private-LLC miss rate via dynamic set sampling (paper §4.4).
//
// The cache model is a tag store only — data payloads are not simulated.
// It supports LRU replacement, write-back and write-through policies,
// per-line sharer tracking (the set of SM clusters that touched a line), and
// flush/invalidate operations needed for the shared↔private reconfiguration
// sequence.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/wire"
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

// Result describes the outcome of a cache access; a miss always allocates.
// Four fields is the most the compiler keeps in registers: a fifth sends
// every access's result through the stack.
type Result struct {
	Hit          bool
	Evicted      bool   // a valid line was evicted to make room
	WritebackReq bool   // the evicted line was dirty and must be written back
	EvictedAddr  uint64 // line-aligned address of the evicted line (valid if Evicted)
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

// MaxWays is the most ways a Cache may have: a set's recency order is one
// word of 4-bit way numbers.
const MaxWays = 16

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("cache: size/ways/line must be positive, got %d/%d/%d", c.SizeBytes, c.Ways, c.LineBytes)
	}
	if c.Ways > MaxWays {
		return fmt.Errorf("cache: %d ways exceed the limit of %d", c.Ways, MaxWays)
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
	cfg   Config
	nsets uint64
	ways  int
	// pow2: the set count is a power of two (the L1's 64 sets) and a set
	// index is an AND; the 48-set LLC slices take the modulo.
	pow2      bool
	lineShift uint
	lru       uint // 4*(ways-1): the LRU way's nibble in a recency word
	// tags holds one dense row of ways words per set (slot = set*ways + way):
	// the line number plus one, so zero is an invalid way and a lookup is one
	// compare per way over adjacent words. Every line number but the all-ones
	// one is representable — any address at LineBytes >= 2, multi-program
	// appID<<40 offsets included.
	tags []uint64
	// order holds one recency word per set: nibble k is the way used k-th
	// most recently, so nibble ways-1 is the LRU way. Where an invalid way
	// sits in it does not matter: a fill takes the row's first invalid way
	// before it looks at the word.
	order []uint64
	// dirty has a bit per slot; an invalid slot's is clear.
	dirty []uint64
	// sharers has a word per slot, the bitmask of cluster IDs that accessed
	// the line while it was resident (the inter-cluster locality of paper
	// Figure 3), and touched a bit per slot, set when a cluster touches the
	// slot and cleared by ResetSharers: every line with a non-empty sharer
	// set has its bit set, so the sharing histogram visits what the window
	// touched, not the whole cache. Both are nil until the first access that
	// names a cluster — the L1s never make one.
	sharers []uint64
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
	slots := nsets * cfg.Ways
	c := &Cache{cfg: cfg, nsets: uint64(nsets), ways: cfg.Ways, pow2: nsets&(nsets-1) == 0,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))), lru: 4 * uint(cfg.Ways-1),
		tags: make([]uint64, slots), order: make([]uint64, nsets),
		dirty: make([]uint64, wire.BitWords(slots))}
	// Every set starts with way k at nibble k. Any permutation of the ways
	// would do, and every operation keeps the word one, so emptying the
	// cache leaves the words as they are.
	for i := range c.order {
		c.order[i] = 0xFEDCBA9876543210 & (1<<c.lru<<4 - 1)
	}
	return c
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Reset empties the cache and switches it to write policy p: afterwards it
// behaves as what New returns for its configuration under p, and is built
// without allocating.
func (c *Cache) Reset(p WritePolicy) {
	c.cfg.Policy = p
	c.empty()
}

// empty invalidates every line.
func (c *Cache) empty() {
	clear(c.tags)
	clear(c.dirty)
	clear(c.sharers)
	clear(c.touched)
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return int(c.nsets) }

// LineAddr returns the line-aligned address for addr.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr &^ (uint64(c.cfg.LineBytes) - 1)
}

// SetIndex hashes a line number into one of nsets cache sets using
// multiplicative hashing. Hashing decorrelates the set index from the address
// bits the memory-side interleaving (channel/slice selection) already
// consumed; with a plain modulo index, the lines homed on one LLC slice would
// cluster in a handful of its sets and waste most of its capacity.
// Non-power-of-two set counts (the paper's 48-set slices) are supported
// naturally. It is shared by the Cache and the ATD so that set sampling
// observes the same sets the real slice uses.
func SetIndex(lineNumber uint64, nsets int) int {
	return int(hashLine(lineNumber) % uint64(nsets))
}

func hashLine(lineNumber uint64) uint64 { return lineNumber * 0x9E3779B97F4A7C15 >> 24 }

// Slot is the outcome of one tag lookup: the way holding an address's line,
// or on a miss the set the line would be inserted into. It stands until the
// cache's contents next change.
type Slot struct {
	key uint64 // the tag word looked for
	at  int    // the slot of the line, or -1 on a miss
	set int    // the set the line maps to
}

// Hit reports whether the lookup found the line resident.
func (s Slot) Hit() bool { return s.at >= 0 }

// Index is the line slot (set*ways + way) of a hit; it means nothing on a
// miss.
func (s Slot) Index() int { return s.at }

// shortRow is the most ways a row may have for Find to compare all of them
// instead of stopping at the hit. Which way hits, if any, is as random as the
// accesses, so the exit of an early-exit scan is a branch the host cannot
// predict: on the L1's 6 ways comparing every way costs less, on an LLC
// slice's 16 it costs more (DESIGN.md "Performance engineering").
// Associativity is the cache's, so no workload picks the scan.
const shortRow = 8

// Find looks addr's line up without updating the recency order. It is
// the only tag scan: a caller that must decide something between looking and
// touching (the SM's and the LLC slice's stall-before-side-effects checks)
// hands the Slot to AccessAt instead of paying for a second one.
func (c *Cache) Find(addr uint64) Slot {
	tag := addr >> c.lineShift
	set := hashLine(tag)
	if c.pow2 {
		set &= c.nsets - 1
	} else {
		set %= c.nsets
	}
	tag++ // the tag word: zero is an invalid way
	base := int(set) * c.ways
	row := c.tags[base : base+c.ways]
	if c.ways > shortRow {
		for i, word := range row {
			if word == tag {
				return Slot{tag, base + i, int(set)}
			}
		}
		return Slot{tag, -1, int(set)}
	}
	// A line sits in at most one way, so the last match is the match.
	at := -1
	for i, word := range row {
		if word == tag {
			at = base + i // a conditional move
		}
	}
	return Slot{tag, at, int(set)}
}

// Access performs a read or write access by the given cluster and returns
// the outcome. `cluster` may be -1 when sharer tracking is not meaningful
// (e.g. for L1 caches).
func (c *Cache) Access(addr uint64, kind AccessKind, cluster int) Result {
	res, _ := c.AccessAt(c.Find(addr), kind, cluster)
	return res
}

// AccessAt is Access of the address `found` was found for. It also returns
// the slot now holding the line: found's on a hit, the filled victim's on a
// miss.
func (c *Cache) AccessAt(found Slot, kind AccessKind, cluster int) (Result, int) {
	base := found.set * c.ways
	if found.Hit() {
		at := found.at
		c.promote(found.set, uint64(at-base))
		if cluster >= 0 {
			c.share(at, cluster)
		}
		res := Result{Hit: true}
		if kind == Write {
			if c.cfg.Policy == WriteBack {
				c.dirty[at>>6] |= 1 << (at & 63)
			} else {
				res.WritebackReq = true // forwarded to next level immediately
			}
		}
		return res, at
	}

	// Miss path: the row's first invalid way, else the LRU way.
	way := c.ways
	for i, word := range c.tags[base : base+c.ways] {
		if word == 0 {
			way = i
			break
		}
	}
	if way == c.ways {
		way = int(c.order[found.set] >> c.lru & 0xF)
	}
	c.promote(found.set, uint64(way))
	victim := base + way
	bit := uint64(1) << (victim & 63)
	var res Result
	if old := c.tags[victim]; old != 0 {
		res.Evicted = true
		res.EvictedAddr = (old - 1) << c.lineShift
		res.WritebackReq = c.dirty[victim>>6]&bit != 0
	}
	c.tags[victim] = found.key
	c.dirty[victim>>6] &^= bit
	if c.sharers != nil {
		c.sharers[victim] = 0
	}
	if cluster >= 0 {
		c.share(victim, cluster)
	}
	if kind == Write {
		if c.cfg.Policy == WriteBack {
			c.dirty[victim>>6] |= bit
		} else {
			// Write-through, write-allocate: line is inserted clean, the
			// store itself is forwarded to the next level by the caller.
			res.WritebackReq = true
		}
	}
	return res, victim
}

// Nibble constants of the recency word's SWAR search.
const (
	nibbleOnes = 0x1111111111111111
	nibbleHigh = 0x8888888888888888
)

// promote makes way the most recently used of set. The way's nibble is the
// lowest zero nibble of the word XOR the way repeated, which the borrow of
// the subtraction cannot fake below the first true zero; ways past the
// set's are zero nibbles above every real one, so they never match first.
// With m covering nibbles 0 through the way's, the nibbles below it shift up
// one and the way goes to nibble 0.
func (c *Cache) promote(set int, way uint64) {
	o := c.order[set]
	x := o ^ way*nibbleOnes
	z := (x - nibbleOnes) &^ x & nibbleHigh
	m := (z&-z)<<1 - 1
	c.order[set] = o&^m | o<<4&m | way
}

// trackSharers allocates the sharer column and the touched set.
func (c *Cache) trackSharers() {
	c.sharers = make([]uint64, len(c.tags))
	c.touched = make([]uint64, wire.BitWords(len(c.tags)))
}

// share records that cluster accessed the line in slot.
func (c *Cache) share(slot, cluster int) {
	if c.sharers == nil {
		c.trackSharers()
	}
	c.sharers[slot] |= 1 << uint(cluster)
	c.touched[slot>>6] |= 1 << (slot & 63)
}

// Invalidate removes the line containing addr, returning whether it was
// present and whether it was dirty. Its way stays where it is in the recency
// word.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	found := c.Find(addr)
	if !found.Hit() {
		return false, false
	}
	at := found.at
	bit := uint64(1) << (at & 63)
	dirty = c.dirty[at>>6]&bit != 0
	c.tags[at] = 0
	c.dirty[at>>6] &^= bit
	if c.sharers != nil {
		c.sharers[at] = 0
	}
	return true, dirty
}

// FlushAll invalidates every line and returns the number of valid lines
// flushed and how many of them were dirty (and therefore require a
// write-back to the next level before the flush completes). This is the
// operation performed when the LLC transitions between shared and private
// organizations.
func (c *Cache) FlushAll() (valid, dirty int) {
	valid, dirty = c.ValidLines(), c.DirtyLines()
	c.empty()
	return valid, dirty
}

// DirtyLines returns the number of dirty lines currently resident.
func (c *Cache) DirtyLines() int {
	n := 0
	for _, word := range c.dirty {
		n += bits.OnesCount64(word)
	}
	return n
}

// ValidLines returns the number of valid lines currently resident.
func (c *Cache) ValidLines() int {
	n := 0
	for _, word := range c.tags {
		if word != 0 {
			n++
		}
	}
	return n
}

// SharerHistogram classifies the resident lines that were accessed since the
// last ResetSharers by how many distinct clusters accessed them, bucketed as
// the paper's Figure 3: exactly 1 cluster, exactly 2, 3–4, and 5–8 (or
// more). Lines that were not accessed in the window are excluded. It returns
// the four bucket counts and the total number of lines considered.
func (c *Cache) SharerHistogram() (one, two, threeFour, fivePlus, total int) {
	for w, word := range c.touched {
		for ; word != 0; word &= word - 1 {
			sharers := c.sharers[w*64+bits.TrailingZeros64(word)]
			if sharers == 0 {
				continue // invalidated since it was touched
			}
			total++
			switch n := bits.OnesCount64(sharers); {
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
			c.sharers[w*64+bits.TrailingZeros64(word)] = 0
		}
		c.touched[w] = 0
	}
}
