package pipeline

import (
	"retstack/internal/bpred"
	"retstack/internal/cache"
	"retstack/internal/config"
	"retstack/internal/emu"
	"retstack/internal/program"
	"retstack/internal/slicepool"
)

// Recycler pools a simulator's bulk allocations — the RUU ring, the fetch
// queue, the cache hierarchy's line arrays, the BTB's entry array,
// full-stack checkpoint backing buffers and flat overlays — across the
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
	bufs     [][]uint32
	overlays []*emu.Overlay
}

// NewRecycler returns an empty pool.
func NewRecycler() *Recycler { return &Recycler{} }

// takeBufs moves every pooled checkpoint buffer into a Sim's free list.
// Contents are irrelevant: SaveInto overwrites a buffer before it is read.
func (r *Recycler) takeBufs() [][]uint32 {
	b := r.bufs
	r.bufs = nil
	return b
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
// cache line arrays and the BTB entries are gone. Checkpoint buffers still
// owned by queued slots and in-flight entries are harvested first, so no
// stack copy leaks with the rings; each buffer has exactly one owner, so
// none is pooled twice.
func (s *Sim) Release(r *Recycler) {
	if r == nil {
		return
	}
	for i := range s.ruu {
		if b := s.ruu[i].checkpoint.TakeBuffer(); b != nil {
			r.bufs = append(r.bufs, b)
		}
	}
	for i := range s.fetchQ {
		if b := s.fetchQ[i].checkpoint.TakeBuffer(); b != nil {
			r.bufs = append(r.bufs, b)
		}
	}
	r.bufs = append(r.bufs, s.cpFree...)
	r.ruu.Put(s.ruu)
	r.slots.Put(s.fetchQ)
	s.hier.Release(&r.lines)
	s.btb.Release(&r.btbs)
	s.ruu, s.fetchQ, s.cpFree = nil, nil, nil
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
