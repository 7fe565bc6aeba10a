// Package pool provides the free-list allocator behind the simulator's
// zero-allocation hot path: memory requests and NoC packets are acquired at
// issue/injection and released when answered/delivered, so the steady-state
// cycle loop recycles a fixed population instead of allocating.
//
// A FreeList is intentionally unsynchronized: each simulated GPU is
// single-threaded, and the sweep engine's parallelism is across GPU
// instances, which never share pools.
package pool

// chunkSize is how many objects a FreeList allocates at once when its free
// list is empty, so cold-start growth costs one allocation per chunk rather
// than one per object.
const chunkSize = 128

// FreeList recycles heap objects of type T. The zero value is an empty pool
// ready for use.
type FreeList[T any] struct {
	free  []*T
	chunk []T
}

// Get returns a zeroed *T, reusing a retired one when available.
func (p *FreeList[T]) Get() *T {
	if n := len(p.free); n > 0 {
		x := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		var zero T
		*x = zero
		return x
	}
	if len(p.chunk) == 0 {
		p.chunk = make([]T, chunkSize)
	}
	x := &p.chunk[0]
	p.chunk = p.chunk[1:]
	return x
}

// Put retires x back into the pool. The caller must not use x afterwards.
// Put(nil) is a no-op.
func (p *FreeList[T]) Put(x *T) {
	if x == nil {
		return
	}
	p.free = append(p.free, x)
}

// FreeLen reports how many retired objects are currently pooled (exported
// for tests).
func (p *FreeList[T]) FreeLen() int { return len(p.free) }
