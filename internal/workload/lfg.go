package workload

import (
	"fmt"
	"math/rand"
)

// lfg is math/rand's additive lagged-Fibonacci generator
// (x[n] = x[n-607] + x[n-273] mod 2^64) as a concrete value type: the
// generator draws from it without an interface hop, and its whole state —
// the 607-word feedback register and the two cursors — is plain data, so a
// checkpoint restores a stream position by copying it. After seed(s) that
// state equals rand.NewSource(s)'s, so float64/below reproduce
// rand.New(rand.NewSource(s)).Float64/Int63n draw for draw (TestLFGMatchesMathRand).
type lfg struct {
	vec       [lfgLen]uint64
	tap, feed int
	draws     uint64 // stream position, informational (checkpointtool)
}

const lfgLen, lfgTap = 607, 273

// seed reproduces rand.NewSource(seed)'s register without its seeding
// table. One full revolution of the generator writes every register word
// exactly once and returns it, so 607 outputs are the register after 607
// steps; running the recurrence backwards over those steps (each step added
// the tap word into the feed word and touched nothing else) recovers the
// register at step 0.
func (r *lfg) seed(seed int64) {
	src := rand.NewSource(seed).(rand.Source64)
	r.tap, r.feed, r.draws = 0, lfgLen-lfgTap, 0
	for i := 0; i < lfgLen; i++ {
		r.tap, r.feed = prev(r.tap), prev(r.feed)
		r.vec[r.feed] = src.Uint64()
	}
	// The cursors are back where they started; undo the steps newest first,
	// which brings them round to the start once more.
	for i := 0; i < lfgLen; i++ {
		r.vec[r.feed] -= r.vec[r.tap]
		r.tap, r.feed = (r.tap+1)%lfgLen, (r.feed+1)%lfgLen
	}
}

func prev(i int) int {
	if i == 0 {
		return lfgLen - 1
	}
	return i - 1
}

// int63 is rngSource.Int63.
func (r *lfg) int63() int64 {
	r.tap, r.feed = prev(r.tap), prev(r.feed)
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	r.draws++
	return int64(x &^ (1 << 63))
}

// float64 is rand.Rand.Float64, including its resample of the one input
// that rounds to 1.0.
func (r *lfg) float64() float64 {
	for {
		if f := float64(r.int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// modulus is an Int63n bound with the rejection limit rand.Rand.Int63n works
// out on every call — a 64-bit divide — worked out once: the generator draws
// below a handful of bounds fixed for its life.
type modulus struct{ n, limit int64 }

func newModulus(n int64) modulus {
	if n <= 0 {
		return modulus{n: n} // a draw below it panics, as Int63n does
	}
	return modulus{n: n, limit: int64((1 << 63) - 1 - (1<<63)%uint64(n))}
}

// below is rand.Rand.Int63n(m.n): a mask for powers of two, otherwise
// rejection sampling below the largest multiple of n.
func (r *lfg) below(m modulus) int64 {
	if m.n <= 0 {
		panic("workload: draw below a non-positive bound")
	}
	if m.n&(m.n-1) == 0 {
		return r.int63() & (m.n - 1)
	}
	v := r.int63()
	for v > m.limit {
		v = r.int63()
	}
	return v % m.n
}

// restore overwrites the stream position with a snapshotted one, rejecting
// a register that no lfg could have produced.
func (r *lfg) restore(vec []uint64, tap, feed int, draws uint64) error {
	if len(vec) != lfgLen || tap < 0 || tap >= lfgLen || feed != (tap+lfgLen-lfgTap)%lfgLen {
		return fmt.Errorf("workload: malformed RNG state (%d words, tap %d, feed %d)", len(vec), tap, feed)
	}
	copy(r.vec[:], vec)
	r.tap, r.feed, r.draws = tap, feed, draws
	return nil
}
