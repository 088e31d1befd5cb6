package pipeline

import (
	"slices"

	"retstack/internal/bpred"
	"retstack/internal/cache"
	"retstack/internal/config"
	"retstack/internal/core"
	"retstack/internal/emu"
	"retstack/internal/program"
	"retstack/internal/slicepool"
)

// Recycler pools a simulator's bulk allocations — the RUU ring, the fetch
// queue, the cache hierarchy's line arrays, the BTB's entry array, the
// checkpoint table with its buffers and flat overlays — across the
// sequence of Sim instances one sweep worker runs. A multi-hundred-cell
// sweep otherwise re-allocates (and re-garbage-collects) the same few
// structures hundreds of times, and keeps every finished cell's arrays
// alive until its table renders.
//
// A Recycler is owned by exactly one worker and is NOT safe for concurrent
// use; workers never share one. Recycled storage is zeroed on reuse, so a
// pooled Sim is indistinguishable from a freshly allocated one — the sweep
// determinism contract (parallel == serial, byte-identical) is preserved.
type Recycler struct {
	ruu      slicepool.Pool[ruuEntry]
	slots    slicepool.Pool[fetchSlot]
	lines    cache.Pool
	btbs     bpred.BTBPool
	cpTable  []core.Checkpoint // the last released table: the next Sim takes one
	overlays []*emu.Overlay
}

// NewRecycler returns an empty pool.
func NewRecycler() *Recycler { return &Recycler{} }

// takeCheckpoints returns a checkpoint table of n invalid entries: the
// pooled table when it has room, its entries keeping their buffers, since
// SaveInto overwrites a buffer before it is read, or a new one.
func (r *Recycler) takeCheckpoints(n int) []core.Checkpoint {
	t := slices.Grow(r.cpTable[:0], n)[:n]
	r.cpTable = nil
	for i := range t {
		t[i].Invalidate()
	}
	return t
}

// takeOverlays moves every pooled flat overlay into a Sim's free list.
// Each overlay is rebased (and its spill counter re-pointed) by
// takeOverlay before use, so stale contents and hooks cannot leak between
// simulations.
func (r *Recycler) takeOverlays() []*emu.Overlay {
	o := r.overlays
	r.overlays = nil
	return o
}

// Release returns the Sim's bulk storage to the pool. Call it only after
// Run has finished and only when the Sim will not run again. The Sim keeps
// its statistics, machines and direction predictor, and Caches() and BTB()
// keep their statistics and geometry, but the RUU, the fetch queue, the
// checkpoint table, the cache line arrays and the BTB entries are gone.
func (s *Sim) Release(r *Recycler) {
	if r == nil {
		return
	}
	r.ruu.Put(s.ruu)
	r.slots.Put(s.fetchQ)
	r.cpTable = s.cpTable
	s.hier.Release(&r.lines)
	s.btb.Release(&r.btbs)
	s.ruu, s.fetchQ, s.cpTable, s.cpHandles = nil, nil, nil, nil
	// Harvest flat overlays still attached to live paths along with the
	// Sim's own free list, detaching the spill counters that point into
	// this Sim.
	for i := range s.paths {
		if o := s.paths[i].overlay; o != nil {
			o.SetSpillCounter(nil)
			r.overlays = append(r.overlays, o)
			s.paths[i].overlay = nil
		}
	}
	for _, o := range s.ovFree {
		o.SetSpillCounter(nil)
		r.overlays = append(r.overlays, o)
	}
	s.ovFree = nil
}

// NewWithRecycler is New drawing the Sim's bulk storage from (and
// intended to be returned to, via Release) a worker-local pool. r may be
// nil, in which case everything is allocated fresh. Under SMT the image
// runs on every thread.
func NewWithRecycler(cfg config.Config, im *program.Image, r *Recycler) (*Sim, error) {
	n := cfg.SMTThreads
	if n < 1 {
		n = 1
	}
	ims := make([]*program.Image, n)
	for i := range ims {
		ims[i] = im
	}
	return newSMTWithRecycler(cfg, ims, r)
}
