package cache

import (
	"math/bits"
	"slices"

	"repro/internal/wire"
)

// This file is the checkpoint codec of the package's structures (see
// internal/checkpoint). Each one writes its live fields with AppendState and
// reads them back with RestoreState, straight from and into the structure,
// so the bytes a checkpoint store holds are the only form its state takes
// outside the structure itself. RestoreState checks what it reads, before it
// can do harm, and records the first failure in the reader; a structure a
// restore failed on holds nothing usable and is thrown away.

// AppendState appends the cache's wire form: the slot count and the valid
// set (a bit per line slot, set-major, set*ways + way), then a column per
// field with one entry per valid slot, in slot order — the dirty bit, the
// line number and the recency position (how many valid lines of its set were
// used more recently, one byte, so a set's valid lines hold 0..n-1, each
// once) — and the sharer sets behind a presence flag: a cache accessed
// without cluster identity (every L1) has none. Invalid slots carry no state,
// and neither does where the recency order keeps them, which nothing reads: a
// snapshot costs what the cache holds, not what it could hold. The bit sets
// and the recency column are reserved and filled in place, one pass over the
// tag words each.
func (c *Cache) AppendState(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(c.tags)))
	at := len(b)
	b = append(b, make([]byte, (len(c.tags)+7)/8)...)
	n := 0
	for i, tag := range c.tags {
		if tag != 0 {
			b[at+i>>3] |= 1 << (i & 7)
			n++
		}
	}
	at, k := len(b), 0
	b = append(b, make([]byte, (n+7)/8)...)
	for i, tag := range c.tags {
		if tag != 0 {
			b[at+k>>3] |= byte(c.dirty[i>>6]>>(i&63)&1) << (k & 7)
			k++
		}
	}
	for _, tag := range c.tags {
		if tag != 0 {
			b = wire.AppendUvarint(b, tag-1)
		}
	}
	// Each set's recency word is walked from the most recently used way:
	// the r-th valid way it meets has position r, and the valid ways before
	// it in the row give its column index.
	at, k = len(b), 0
	b = append(b, make([]byte, n)...)
	for set, order := range c.order {
		row := c.validRow(set)
		r, valid := byte(0), byte(bits.OnesCount64(row))
		for ; r < valid; order >>= 4 {
			if way := order & 0xF; row>>way&1 != 0 {
				b[at+k+bits.OnesCount64(row&(1<<way-1))] = r
				r++
			}
		}
		k += int(r)
	}
	// Only valid lines have sharers: the cache clears them with the line.
	shared := slices.ContainsFunc(c.sharers, func(s uint64) bool { return s != 0 })
	b = wire.AppendBool(b, shared)
	if !shared {
		return b
	}
	for i, tag := range c.tags {
		if tag != 0 {
			b = wire.AppendUvarint(b, c.sharers[i])
		}
	}
	return b
}

// validRow is the valid bits of set's ways.
func (c *Cache) validRow(set int) uint64 {
	row := uint64(0)
	for way, tag := range c.tags[set*c.ways : (set+1)*c.ways] {
		if tag != 0 {
			row |= 1 << way
		}
	}
	return row
}

// RestoreState overwrites the cache's lines with the next ones in r, written
// by a cache of the same geometry. The tags are read straight into the tag
// words, so a slot is valid after that pass when its word is not zero; each
// set's recency word is then rebuilt from the positions of its valid lines,
// with its invalid ways behind them.
func (c *Cache) RestoreState(r *wire.Reader) {
	if n := r.Uvarint(); n != uint64(len(c.tags)) {
		r.Fail("cache: snapshot has %d lines, cache holds %d", n, len(c.tags))
		return
	}
	c.empty()
	validBits := r.Take((len(c.tags) + 7) / 8)
	if validBits == nil {
		return
	}
	if len(c.tags)%8 != 0 && validBits[len(validBits)-1]>>(len(c.tags)%8) != 0 {
		r.Fail("cache: snapshot marks lines valid beyond the %d it holds", len(c.tags))
		return
	}
	n := 0
	for i := range c.tags {
		if validBits[i>>3]>>(i&7)&1 != 0 {
			c.tags[i] = 1 // a placeholder until the tag column is read
			n++
		}
	}
	if !r.Need(n, 2) {
		return
	}
	dirty, k := r.Take((n+7)/8), 0
	if n%8 != 0 && dirty[len(dirty)-1]>>(n%8) != 0 {
		r.Fail("cache: snapshot marks lines dirty beyond its %d valid ones", n)
		return
	}
	for i, tag := range c.tags {
		if tag != 0 {
			c.dirty[i>>6] |= uint64(dirty[k>>3]>>(k&7)&1) << (i & 63)
			k++
		}
	}
	for i, tag := range c.tags {
		if tag != 0 {
			line := r.Uvarint()
			if line == ^uint64(0) {
				r.Fail("cache: snapshot holds line number %#x, which a tag word cannot", line)
				return
			}
			c.tags[i] = line + 1
		}
	}
	recency := r.Take(n)
	if recency == nil {
		return
	}
	k = 0
	for set := range c.order {
		row := c.validRow(set)
		valid := bits.OnesCount64(row)
		seen, order := uint32(0), uint64(0)
		for ways := row; ways != 0; ways &= ways - 1 {
			pos := recency[k]
			seen |= 1 << pos
			order |= uint64(bits.TrailingZeros64(ways)) << (4 * (pos & 0xF))
			k++
		}
		if seen != 1<<valid-1 {
			r.Fail("cache: snapshot set %d ranks its %d valid lines other than 0..%d once each", set, valid, valid-1)
			return
		}
		for invalid := ^row & (1<<uint(c.ways) - 1); invalid != 0; invalid &= invalid - 1 {
			order |= uint64(bits.TrailingZeros64(invalid)) << (4 * valid) // behind the valid ways
			valid++
		}
		c.order[set] = order
	}
	if !r.Bool() || !r.Need(n, 1) {
		return
	}
	if c.sharers == nil {
		c.trackSharers()
	}
	for i, tag := range c.tags {
		if tag != 0 {
			if s := r.Uvarint(); s != 0 {
				c.sharers[i] = s
				c.touched[i>>6] |= 1 << (i & 63) // the touched set is derived from the sharer sets
			}
		}
	}
}

// AppendState appends the table's wire form: per entry its line and its
// counted payloads, each written by elem. The entries go in the table's
// packed order, which no lookup depends on but a restore keeps.
func (m *MSHRTable[P]) AppendState(b []byte, elem func([]byte, P) []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(m.lines)))
	for i, line := range m.lines {
		b = wire.AppendUvarint(b, line)
		b = wire.AppendUvarint(b, uint64(len(m.payloads[i])))
		for _, p := range m.payloads[i] {
			b = elem(b, p)
		}
	}
	return b
}

// RestoreState overwrites the table's entries with the next ones in r; elem
// reads payload j of entry i, at least elemMin bytes of it.
func (m *MSHRTable[P]) RestoreState(r *wire.Reader, elemMin int, elem func(r *wire.Reader, i int) P) {
	m.Reset()
	n := r.Count(2)
	if n > m.capacity {
		r.Fail("cache: MSHR snapshot holds %d entries, table capacity is %d", n, m.capacity)
		return
	}
	for i := 0; i < n; i++ {
		line, k := r.Uvarint(), r.Count(elemMin)
		// A list deeper than this table's slices makes the move Commit would
		// have made: lists grown to exact size here would re-grow on every
		// later merge, and a restored table would keep allocating long after
		// a cold one went quiet.
		if m.outgrown(k) {
			m.deepen()
		}
		ps := m.takePayload()
		for j := 0; j < k; j++ {
			ps = append(ps, elem(r, i))
		}
		m.lines = append(m.lines, line)
		m.payloads = append(m.payloads, ps)
	}
	// Reset already bumped the stamp, invalidating outstanding Probes; no
	// Probe is ever held across a checkpoint boundary.
}

// AppendState appends the ATD's wire form: the counted entries (row-major,
// sampledSets*ways), then the clock and counters.
func (a *ATD) AppendState(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(a.sampledSets*a.ways))
	for _, set := range a.sets {
		for _, e := range set {
			b = wire.AppendBool(b, e.valid)
			b = wire.AppendUvarint(b, e.tag)
			b = wire.AppendUvarint(b, e.lastUse)
			b = wire.AppendInt(b, e.lastCluster)
		}
	}
	b = wire.AppendUvarint(b, a.clock)
	b = wire.AppendUvarint(b, a.accesses)
	b = wire.AppendUvarint(b, a.sharedHits)
	return wire.AppendUvarint(b, a.privateHits)
}

// RestoreState overwrites the ATD's state with the next one in r, written
// by an ATD of the same geometry.
func (a *ATD) RestoreState(r *wire.Reader) {
	if n, want := r.Uvarint(), a.sampledSets*a.ways; n != uint64(want) {
		r.Fail("cache: ATD snapshot has %d entries, directory holds %d", n, want)
		return
	}
	for _, set := range a.sets {
		for w := range set {
			set[w] = atdEntry{valid: r.Bool(), tag: r.Uvarint(), lastUse: r.Uvarint(), lastCluster: r.Int()}
		}
	}
	a.clock = r.Uvarint()
	a.accesses = r.Uvarint()
	a.sharedHits = r.Uvarint()
	a.privateHits = r.Uvarint()
}
