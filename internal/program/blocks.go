package program

import (
	"sync/atomic"

	"retstack/internal/isa"
)

// Basic-block descriptors over the predecode plane.
//
// A block is the contiguous run of straight-line instructions starting at a
// given plane index and ending at (and including) the first control transfer
// or syscall — or at the end of the plane when no terminator follows. The
// descriptor itself is just the run length: the plane already carries the
// pre-resolved instruction classes and decoded operand routing per slot, so
// length is all a block-at-a-time consumer needs to walk the run without
// re-entering per-instruction dispatch.
//
// Descriptors live in blocks, a flat table parallel to insts/classes,
// allocated (zero-filled) at predecode time and filled lazily the first time
// a block is entered. Zero means "not built yet"; a built entry at index i
// holds the number of instructions from i through the block's terminator,
// so entering a block mid-way (branch target into a shared suffix, or a
// budget-bounded resume) still resolves in O(1): building a block fills
// every suffix index it covers.
//
// The fill uses sync/atomic. Planes are shared read-only across concurrent
// sweep cells, and two cells may build the same block at once; both compute
// identical values, so the race is benign, but atomic Load/Store keeps the
// table well-defined under the race detector and guarantees readers never
// see a torn entry.

// IsBlockTerminator reports whether an instruction of class c ends a basic
// block: any control transfer, or a syscall (which can halt the machine or
// perform I/O and therefore must not be executed inside a straight-line
// batch).
func IsBlockTerminator(c isa.Class) bool {
	return c.IsControl() || c == isa.ClassSyscall
}

// BlockLenAt returns the basic-block length in instructions starting at
// plane index idx — the straight-line body plus its terminator, or the run
// to the end of the plane when no terminator follows. idx must be in
// range (BlockLen checks a PC). built reports whether this call performed
// the lazy descriptor build (for telemetry). The hit path, the index's
// bounds check and one atomic load, inlines into the block loops.
func (p *Plane) BlockLenAt(idx uint32) (n uint32, built bool) {
	if n = atomic.LoadUint32(&p.blocks[idx]); n == 0 {
		return p.buildBlock(idx), true
	}
	return
}

// buildBlock fills the descriptors of the block starting at idx and of
// every suffix of it, and returns the block's length. It must not inline,
// or BlockLenAt would not.
//
//go:noinline
func (p *Plane) buildBlock(idx uint32) uint32 {
	last := idx
	for last < uint32(len(p.classes))-1 && !IsBlockTerminator(p.classes[last]) {
		last++
	}
	for j := idx; j <= last; j++ {
		atomic.StoreUint32(&p.blocks[j], last-j+1)
	}
	return last - idx + 1
}

// BlockLen is BlockLenAt keyed by PC. It returns n=0 when pc is outside the
// plane or not word-aligned.
func (p *Plane) BlockLen(pc uint32) (n uint32, built bool) {
	idx := (pc - p.base) >> 2
	if pc&3 != 0 || idx >= uint32(len(p.blocks)) {
		return 0, false
	}
	return p.BlockLenAt(idx)
}

// PrewarmBlocks builds every block descriptor in one linear pass, so a
// plane shared across sweep workers serves all block lookups from built
// entries — no worker ever runs the lazy fill (benign but contended: two
// workers entering the same cold block both scan and both store) while
// another is simulating. The pass walks terminators backwards-free: each
// slot's length is 1 when it terminates, else its successor's length + 1.
// Idempotent; entries already built are overwritten with identical values.
func (p *Plane) PrewarmBlocks() {
	n := len(p.classes)
	if n == 0 {
		return
	}
	// The last slot always ends its block (run stops at the plane edge).
	atomic.StoreUint32(&p.blocks[n-1], 1)
	for i := n - 2; i >= 0; i-- {
		if IsBlockTerminator(p.classes[i]) {
			atomic.StoreUint32(&p.blocks[i], 1)
		} else {
			atomic.StoreUint32(&p.blocks[i], atomic.LoadUint32(&p.blocks[i+1])+1)
		}
	}
}

// ResetBlocks clears every block descriptor, forcing lazy rebuilds. It is a
// benchmarking and testing hook (measuring build cost requires un-building);
// production consumers never call it — a plane's descriptors are valid for
// the life of the plane.
func (p *Plane) ResetBlocks() {
	for i := range p.blocks {
		atomic.StoreUint32(&p.blocks[i], 0)
	}
}

// Tables exposes the plane's instruction and class arrays for block-at-a-time
// interpreters that index by plane slot rather than by PC. Both slices are
// immutable: callers must treat them as read-only.
func (p *Plane) Tables() (insts []isa.Inst, classes []isa.Class) {
	return p.insts, p.classes
}
