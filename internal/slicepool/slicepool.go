// Package slicepool recycles large slices across a sequence of short-lived
// owners, such as the simulations one sweep worker runs back to back, so
// that each owner does not allocate (and the collector reclaim) the same
// arrays again.
package slicepool

// Pool keeps released slices of T for reuse. It is not safe for concurrent
// use. The zero value is empty and ready to use; Take on a nil *Pool
// allocates.
type Pool[T any] struct {
	free [][]T
}

// Take returns a zeroed slice of length n: the pooled slice with the least
// capacity that holds n, cleared, or a new one when none does. Best fit
// keeps a large slice for the request that needs it when owners draw
// slices of several sizes.
func (p *Pool[T]) Take(n int) []T {
	best := -1
	if p != nil {
		for i, s := range p.free {
			if cap(s) >= n && (best < 0 || cap(s) < cap(p.free[best])) {
				best = i
			}
		}
	}
	if best < 0 {
		return make([]T, n)
	}
	s := p.free[best][:n]
	last := len(p.free) - 1
	p.free[best], p.free[last] = p.free[last], nil
	p.free = p.free[:last]
	clear(s)
	return s
}

// Put returns s to the pool; its owner must not use it afterwards.
func (p *Pool[T]) Put(s []T) {
	if s != nil {
		p.free = append(p.free, s)
	}
}
