package core

import "slices"

// TaggedStack models the Pentium MMX / Pentium II valid-bits repair the
// paper describes: "a repair mechanism which uses valid bits to detect
// corrupted entries. Valid bits require identifiers for each in-flight
// branch; after a misprediction, these tags permit the processor to
// identify which stack entries have been corrupted."
//
// Each push records the fetch sequence number of the pushing instruction.
// When a branch with sequence number B mispredicts, every entry pushed
// after B is a wrong-path push: InvalidateAfter(B) pops them off, which
// restores the top-of-stack pointer whenever the wrong path net-pushed.
// Entries the wrong path *popped* cannot be recovered (nothing was saved),
// and entries it popped-then-overwrote are detected as invalid — a pop
// returning ok=false tells the fetch engine to fall back to its secondary
// predictor rather than follow a known-corrupt address.
//
// Protection therefore sits between RepairNone and RepairTOSPointer, at
// the cost of one tag per entry and no shadow checkpoint storage at all.
type TaggedStack struct {
	entries []uint32
	seqs    []uint64
	valid   []bool
	tos     int
	depth   int
	stats   Stats
}

// NewTaggedStack returns a valid-bits stack with the given entry count.
func NewTaggedStack(size int) *TaggedStack {
	if size <= 0 {
		panic("core: stack size must be positive")
	}
	return &TaggedStack{
		entries: make([]uint32, size),
		seqs:    make([]uint64, size),
		valid:   make([]bool, size),
		tos:     size - 1,
	}
}

// Size returns the number of entries.
func (s *TaggedStack) Size() int { return len(s.entries) }

// Depth returns the logical occupancy.
func (s *TaggedStack) Depth() int { return s.depth }

// Stats returns the event counters.
func (s *TaggedStack) Stats() *Stats { return &s.stats }

// PushSeq records a call fetched with sequence number seq.
func (s *TaggedStack) PushSeq(addr uint32, seq uint64) {
	s.stats.Pushes++
	if s.depth == len(s.entries) {
		s.stats.Overflows++
	} else {
		s.depth++
	}
	s.tos++
	if s.tos == len(s.entries) {
		s.tos = 0
	}
	s.entries[s.tos] = addr
	s.seqs[s.tos] = seq
	s.valid[s.tos] = true
}

// Push implements ReturnStack for callers without a sequence number.
func (s *TaggedStack) Push(addr uint32) { s.PushSeq(addr, ^uint64(0)) }

// Pop predicts a return target. ok reports whether the entry is valid; on
// an invalid or underflowed entry the fetch engine should consult its
// secondary predictor instead of the returned address.
func (s *TaggedStack) Pop() (uint32, bool) {
	s.stats.Pops++
	addr := s.entries[s.tos]
	ok := s.depth > 0 && s.valid[s.tos]
	if s.depth == 0 {
		s.stats.Underflows++
	} else {
		s.depth--
	}
	s.valid[s.tos] = false
	s.tos--
	if s.tos < 0 {
		s.tos = len(s.entries) - 1
	}
	return addr, ok
}

// InvalidateAfter repairs the stack after the branch fetched at seq
// mispredicted: entries pushed later are wrong-path pushes and are popped
// off (restoring the pointer for net-push wrong paths).
func (s *TaggedStack) InvalidateAfter(seq uint64) {
	s.stats.Restores++
	for s.depth > 0 && s.valid[s.tos] && s.seqs[s.tos] > seq {
		s.valid[s.tos] = false
		s.depth--
		s.tos--
		if s.tos < 0 {
			s.tos = len(s.entries) - 1
		}
	}
}

// SaveInto implements ReturnStack: the valid-bits design keeps no shadow
// state, so checkpoints are empty.
func (s *TaggedStack) SaveInto(c *Checkpoint) { c.valid = false }

// Restore implements ReturnStack: a no-op (repair happens via
// InvalidateAfter).
func (s *TaggedStack) Restore(c *Checkpoint) {}

// Snapshot implements ReturnStack.
func (s *TaggedStack) Snapshot() Snapshot {
	return Snapshot{entries: slices.Clone(s.entries), seqs: slices.Clone(s.seqs), valid: slices.Clone(s.valid),
		tos: s.tos, depth: s.depth, stats: s.stats}
}

// LoadSnapshot implements ReturnStack.
func (s *TaggedStack) LoadSnapshot(sn *Snapshot) {
	if len(sn.entries) != len(s.entries) || len(sn.seqs) != len(s.seqs) {
		panic(snapshotMismatch)
	}
	copy(s.entries, sn.entries)
	copy(s.seqs, sn.seqs)
	copy(s.valid, sn.valid)
	s.tos, s.depth, s.stats = sn.tos, sn.depth, sn.stats
}

// CloneStack implements ReturnStack.
func (s *TaggedStack) CloneStack() ReturnStack {
	n := &TaggedStack{
		entries: make([]uint32, len(s.entries)),
		seqs:    make([]uint64, len(s.seqs)),
		valid:   make([]bool, len(s.valid)),
		tos:     s.tos,
		depth:   s.depth,
	}
	copy(n.entries, s.entries)
	copy(n.seqs, s.seqs)
	copy(n.valid, s.valid)
	return n
}

// SeqRepairer is implemented by stacks whose repair uses per-entry branch
// tags instead of checkpoints (the valid-bits design). The pipeline calls
// PushSeq at fetch and InvalidateAfter at recovery when available.
type SeqRepairer interface {
	PushSeq(addr uint32, seq uint64)
	InvalidateAfter(seq uint64)
}

var _ ReturnStack = (*TaggedStack)(nil)
var _ SeqRepairer = (*TaggedStack)(nil)
