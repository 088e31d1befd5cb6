// Package core implements the paper's primary contribution: the
// return-address stack (RAS) and its misprediction-repair mechanisms.
//
// A return-address stack predicts procedure-return targets by pushing the
// return address when a call is fetched and popping when a return is
// fetched. Because updates happen speculatively at fetch time, instructions
// fetched down a mispredicted path corrupt the stack. This package provides
// the stack itself plus the checkpoint/restore machinery evaluated in the
// paper:
//
//   - RepairNone — speculative stack with no repair (the baseline).
//   - RepairTOSPointer — each in-flight branch checkpoints the top-of-stack
//     pointer; restoring the pointer undoes net push/pop imbalance but not
//     overwritten entries (cf. the Cyrix patent).
//   - RepairTOSPointerAndContents — additionally checkpoints the entry the
//     pointer designates, repairing the common single-overwrite case. This
//     is the paper's proposal, achieving nearly 100% return hit rates.
//   - RepairFullStack — checkpoints the entire stack: an upper bound.
//
// A linked variant (LinkedStack) models the Jourdan et al. self-
// checkpointing scheme, which preserves popped entries by never reusing a
// live physical slot; it needs only pointer checkpoints but more storage.
//
// For multipath processors, Clone supports per-path stacks: forking a path
// copies the parent's stack into the child's context, eliminating
// cross-path contention entirely.
package core

import (
	"fmt"
	"slices"
)

// RepairPolicy selects what a checkpoint captures and a restore repairs.
type RepairPolicy uint8

const (
	// RepairNone performs no repair: mispredictions leave the stack as the
	// wrong path left it.
	RepairNone RepairPolicy = iota
	// RepairTOSPointer restores only the top-of-stack pointer.
	RepairTOSPointer
	// RepairTOSPointerAndContents restores the pointer and the top entry.
	RepairTOSPointerAndContents
	// RepairFullStack restores the whole stack (upper bound).
	RepairFullStack
)

var policyNames = []string{"none", "tos-ptr", "tos-ptr+contents", "full"}

func (p RepairPolicy) String() string {
	if int(p) < len(policyNames) {
		return policyNames[p]
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// Policies lists every repair policy in evaluation order.
func Policies() []RepairPolicy {
	return []RepairPolicy{RepairNone, RepairTOSPointer, RepairTOSPointerAndContents, RepairFullStack}
}

// Stats counts structural stack events. Prediction accuracy (hits and
// mispredictions) is accounted where resolution happens — in the pipeline —
// since the stack itself cannot know whether a prediction was right.
type Stats struct {
	Pushes      uint64
	Pops        uint64
	Overflows   uint64 // push onto a full stack (oldest entry lost)
	Underflows  uint64 // pop from an empty stack (garbage prediction)
	Restores    uint64 // repairs applied after mispredictions
	Corruptions uint64 // entries overwritten by injected faults (dev only)
}

// Checkpoint is the shadow state saved for one in-flight branch. Its
// footprint depends on the policy: nothing, a pointer, a pointer plus one
// entry, or the whole stack. The zero value is an empty checkpoint.
type Checkpoint struct {
	valid bool
	tos   int
	depth int
	top   uint32
	full  []uint32 // only for RepairFullStack
}

// Valid reports whether the checkpoint holds saved state.
func (c Checkpoint) Valid() bool { return c.valid }

// Invalidate marks the checkpoint empty while keeping its storage, so the
// next SaveInto into it allocates nothing.
func (c *Checkpoint) Invalidate() { c.valid = false }

// Stack is the circular return-address stack. Pushing onto a full stack
// wraps and overwrites the oldest entry (overflow); popping an empty stack
// returns whatever the pointer designates (underflow), as in the Alpha
// 21164's stack, which "can overflow and underflow".
type Stack struct {
	entries []uint32
	tos     int // index of the current top entry
	depth   int // logical occupancy in [0, len(entries)]
	policy  RepairPolicy
	stats   Stats
}

// NewStack returns a stack with the given number of entries and repair
// policy. Size must be positive; a processor without a RAS is modeled by
// the pipeline, not by a zero-size stack.
func NewStack(size int, policy RepairPolicy) *Stack {
	if size <= 0 {
		panic("core: stack size must be positive")
	}
	return &Stack{entries: make([]uint32, size), tos: size - 1, policy: policy}
}

// Size returns the number of entries.
func (s *Stack) Size() int { return len(s.entries) }

// Policy returns the repair policy.
func (s *Stack) Policy() RepairPolicy { return s.policy }

// Depth returns the current logical occupancy.
func (s *Stack) Depth() int { return s.depth }

// Stats returns a pointer to the stack's event counters.
func (s *Stack) Stats() *Stats { return &s.stats }

// Push records the return address of a fetched call.
func (s *Stack) Push(addr uint32) {
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
}

// Pop predicts the target of a fetched return and removes it from the
// stack. The second result reports whether the stack logically held an
// entry; on underflow the returned address is whatever the slot contains.
func (s *Stack) Pop() (uint32, bool) {
	s.stats.Pops++
	addr := s.entries[s.tos]
	ok := s.depth > 0
	if !ok {
		s.stats.Underflows++
	} else {
		s.depth--
	}
	s.tos--
	if s.tos < 0 {
		s.tos = len(s.entries) - 1
	}
	return addr, ok
}

// Top returns the current top entry without popping.
func (s *Stack) Top() uint32 { return s.entries[s.tos] }

// SaveInto captures the shadow state for one about-to-be-predicted branch
// into c (reusing its storage where possible), per the repair policy.
func (s *Stack) SaveInto(c *Checkpoint) {
	c.valid = true
	c.tos = s.tos
	c.depth = s.depth
	switch s.policy {
	case RepairNone:
		c.valid = false
	case RepairTOSPointer:
		// pointer-only: nothing else to save
	case RepairTOSPointerAndContents:
		c.top = s.entries[s.tos]
	case RepairFullStack:
		if cap(c.full) < len(s.entries) {
			c.full = make([]uint32, len(s.entries))
		}
		c.full = c.full[:len(s.entries)]
		copy(c.full, s.entries)
	}
}

// Save is SaveInto into a fresh checkpoint.
func (s *Stack) Save() Checkpoint {
	var c Checkpoint
	s.SaveInto(&c)
	return c
}

// Restore repairs the stack from a checkpoint taken at the mispredicted
// branch. A checkpoint that is invalid (policy RepairNone, or shadow-slot
// exhaustion upstream) leaves the stack untouched.
func (s *Stack) Restore(c *Checkpoint) {
	if !c.valid {
		return
	}
	s.stats.Restores++
	s.tos = c.tos
	s.depth = c.depth
	switch s.policy {
	case RepairTOSPointerAndContents:
		s.entries[s.tos] = c.top
	case RepairFullStack:
		copy(s.entries, c.full)
	}
}

// CorruptTop overwrites the current top entry in place — the fault
// injector's model of an external corruption event (a bit flip, or the
// cross-thread interference the paper's SMT discussion describes). The
// pointer and depth are untouched, so a subsequent pop predicts the
// corrupted address: the repair mechanisms either restore the entry from
// a checkpoint (RepairTOSPointerAndContents and up) or the return
// mispredicts — never anything worse.
func (s *Stack) CorruptTop(addr uint32) {
	s.entries[s.tos] = addr
	s.stats.Corruptions++
}

// CorruptSavedTop overwrites the top entry a checkpoint captured — the
// matching injection point for shadow state. Only checkpoints that saved
// contents are affected; corrupting a pointer-only checkpoint is a no-op
// because there is nothing saved to corrupt.
func (c *Checkpoint) CorruptSavedTop(addr uint32) {
	if !c.valid {
		return
	}
	c.top = addr
	if len(c.full) > 0 && c.tos < len(c.full) {
		c.full[c.tos] = addr
	}
}

// Corruptible is implemented by stacks that support injected corruption
// (currently the circular Stack); the pipeline's disturber type-asserts
// against it so exotic stack kinds simply ignore injection.
type Corruptible interface {
	CorruptTop(addr uint32)
}

// TOSIndex returns the physical index of the current top entry. Purely
// observational: the tracer uses it to name the slot a push wrote or a pop
// read, which is what lets misprediction attribution distinguish an
// overwritten slot from a wrapped one.
func (s *Stack) TOSIndex() int { return s.tos }

// Inspector is implemented by stacks whose physical slots can be observed
// (currently the circular Stack). The pipeline's tracer type-asserts
// against it; stack kinds without stable slot identities (linked, tagged)
// are traced without slot indices and attributed more coarsely.
type Inspector interface {
	TOSIndex() int
	Top() uint32
	Size() int
	Depth() int
}

var _ Inspector = (*Stack)(nil)

// Clone returns an independent copy of the stack with zeroed statistics —
// the per-path copy made when a multipath processor forks.
func (s *Stack) Clone() *Stack {
	n := &Stack{
		entries: make([]uint32, len(s.entries)),
		tos:     s.tos,
		depth:   s.depth,
		policy:  s.policy,
	}
	copy(n.entries, s.entries)
	return n
}

// Snapshot implements ReturnStack. A top-K stack takes its snapshot
// through this method too: K is configuration, not state.
func (s *Stack) Snapshot() Snapshot {
	return Snapshot{entries: slices.Clone(s.entries), tos: s.tos, depth: s.depth, stats: s.stats}
}

// LoadSnapshot implements ReturnStack, keeping the stack's own policy.
func (s *Stack) LoadSnapshot(sn *Snapshot) {
	if len(sn.entries) != len(s.entries) || sn.links != nil || sn.seqs != nil {
		panic(snapshotMismatch)
	}
	copy(s.entries, sn.entries)
	s.tos, s.depth, s.stats = sn.tos, sn.depth, sn.stats
}

// CopyFrom overwrites this stack's contents with src's (sizes must match),
// preserving this stack's statistics. Used to recycle per-path stacks
// without allocation.
func (s *Stack) CopyFrom(src *Stack) {
	if len(s.entries) != len(src.entries) {
		panic("core: CopyFrom size mismatch")
	}
	copy(s.entries, src.entries)
	s.tos = src.tos
	s.depth = src.depth
	s.policy = src.policy
}
