package workload

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// lfg is math/rand's additive lagged-Fibonacci generator
// (x[n] = x[n-607] + x[n-273] mod 2^64) as a concrete value type: the
// generator draws from it without an interface hop, and its whole state —
// the 607-word feedback register and the two cursors — is plain data, so a
// checkpoint restores a stream position by copying it. After seed(s) that
// state equals rand.NewSource(s)'s, so below reproduces
// rand.New(rand.NewSource(s)).Int63n, and unit its Float64 before the
// conversion, draw for draw (TestLFGMatchesMathRand).
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

// A threshold is a probability p as an int63 draw: the least x with
// float64(x)/2^63 >= p, 2^63 for none. The conversion rounds monotonically
// and the division by 2^63 is exact, so float64(x)/2^63 >= p holds exactly
// for x >= the threshold. rand.Rand.Float64() >= p is therefore
// unit() >= thresholdOf(p), with no conversion, and Float64() < p its
// negation for any p but NaN.
type threshold uint64

// thresholdOf finds p's threshold by bisection over [0, 2^63].
func thresholdOf(p float64) threshold {
	lo, hi := uint64(0), uint64(1)<<63 // the answer lies in [lo, hi]
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(mid)/(1<<63) >= p {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return threshold(lo)
}

// one is 1.0's threshold: the draws Float64 resamples because they round to
// 1.0 (2^63 - 512 and up).
var one = thresholdOf(1)

// unit is rand.Rand.Float64 before its conversion: the int63 draw,
// resampling the draws Float64 resamples, to be compared against thresholds.
func (r *lfg) unit() threshold {
	for {
		if x := threshold(r.int63()); x < one {
			return x
		}
	}
}

// modulus is a bound the generator draws below or reduces by, fixed for its
// life, with what rand.Rand.Int63n and `%` would work out with a 64-bit
// divide on every call worked out once: the rejection limit, and the
// reciprocal mod multiplies by instead of dividing.
type modulus struct {
	n     uint64
	limit uint64 // the largest draw below accepts
	inv   uint64 // floor((2^64-1)/n)
}

func newModulus(n uint64) modulus {
	if n == 0 {
		return modulus{} // a draw below it panics, as Int63n does
	}
	return modulus{n: n, limit: (1 << 63) - 1 - (1<<63)%n, inv: ^uint64(0) / n}
}

// mod is v % m.n with a multiply-high for the divide. inv·n lies in
// (2^64 - n - 1, 2^64), so v·inv/2^64 lies in (v/n - 1, v/n]: its floor q is
// ⌊v/n⌋ or one less, v - q·n lies in [0, 2n), and one subtraction corrects
// it — for every v and every n >= 1.
func (m modulus) mod(v uint64) uint64 {
	q, _ := bits.Mul64(v, m.inv)
	r := v - q*m.n
	if r >= m.n {
		r -= m.n
	}
	return r
}

// below is rand.Rand.Int63n(m.n): a mask for powers of two, otherwise
// rejection sampling below the largest multiple of n.
func (r *lfg) below(m modulus) uint64 {
	if int64(m.n) <= 0 {
		panic("workload: draw below a non-positive bound")
	}
	if m.n&(m.n-1) == 0 {
		return uint64(r.int63()) & (m.n - 1)
	}
	v := uint64(r.int63())
	for v > m.limit {
		v = uint64(r.int63())
	}
	return m.mod(v)
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
