package core

import "slices"

// ReturnStack is the interface the fetch engine uses, satisfied by both the
// conventional circular Stack and the LinkedStack variant.
type ReturnStack interface {
	Push(addr uint32)
	Pop() (uint32, bool)
	SaveInto(c *Checkpoint)
	Restore(c *Checkpoint)
	Stats() *Stats
	Size() int
	Depth() int
	CloneStack() ReturnStack
	Snapshot() Snapshot
	LoadSnapshot(sn *Snapshot)
}

// Snapshot is a return stack's contents, pointers and counters, without
// its configuration: a circular stack's repair policy and a top-K stack's
// K belong to the stack that loads the snapshot, which must be of the
// same kind and size. Fast-forward never reads either, so one snapshot
// taken after a warm-up serves every repair policy under study.
type Snapshot struct {
	entries []uint32
	links   []linkedEntry // linked stack only
	seqs    []uint64      // tagged stack only
	valid   []bool        // tagged stack only
	tos     int
	next    int32 // linked stack only
	depth   int
	stats   Stats
}

// snapshotMismatch is the panic for loading a snapshot into a stack of
// another kind or size: the caller's configuration key is broken.
const snapshotMismatch = "core: stack snapshot of another kind or size"

// CloneStack implements ReturnStack.
func (s *Stack) CloneStack() ReturnStack { return s.Clone() }

var _ ReturnStack = (*Stack)(nil)
var _ ReturnStack = (*LinkedStack)(nil)

type linkedEntry struct {
	addr  uint32
	below int32 // physical index of the next valid entry, -1 at bottom
}

// LinkedStack models the self-checkpointing return-address stack of
// Jourdan et al.: every push allocates a fresh physical slot and records a
// pointer to the entry below it, so popped entries are preserved rather
// than overwritten by later mis-speculated pushes. Repair then needs only
// the top-of-stack pointer, but the structure requires more physical
// entries than the checkpointed stacks for equal protection — the paper's
// point when comparing against its simpler proposal.
//
// Physical slots are allocated round-robin; once allocation wraps, entries
// still reachable from an old checkpoint may be overwritten, which is how
// capacity pressure manifests (counted as an overflow).
type LinkedStack struct {
	entries []linkedEntry
	tos     int32 // physical index of top, -1 when empty
	next    int32 // next physical slot to allocate
	depth   int   // logical occupancy
	stats   Stats
}

// NewLinkedStack returns a linked stack with the given number of physical
// entries.
func NewLinkedStack(physEntries int) *LinkedStack {
	if physEntries <= 0 {
		panic("core: linked stack size must be positive")
	}
	ls := &LinkedStack{entries: make([]linkedEntry, physEntries), tos: -1}
	for i := range ls.entries {
		ls.entries[i].below = -1
	}
	return ls
}

// Size returns the number of physical entries.
func (ls *LinkedStack) Size() int { return len(ls.entries) }

// Depth returns the logical occupancy.
func (ls *LinkedStack) Depth() int { return ls.depth }

// Stats returns the event counters.
func (ls *LinkedStack) Stats() *Stats { return &ls.stats }

// Push implements ReturnStack. Allocation is round-robin over the physical
// slots; overwriting the slot some live chain still needs is the (rare)
// overflow case.
func (ls *LinkedStack) Push(addr uint32) {
	ls.stats.Pushes++
	p := ls.next
	ls.next++
	if ls.next == int32(len(ls.entries)) {
		ls.next = 0
	}
	if ls.depth == len(ls.entries) {
		ls.stats.Overflows++
	} else {
		ls.depth++
	}
	// If we are overwriting the current top (full wrap), the chain below is
	// lost; the below pointer still gets written, keeping behavior defined.
	ls.entries[p] = linkedEntry{addr: addr, below: ls.tos}
	ls.tos = p
}

// Pop implements ReturnStack.
func (ls *LinkedStack) Pop() (uint32, bool) {
	ls.stats.Pops++
	if ls.tos < 0 {
		ls.stats.Underflows++
		return 0, false
	}
	e := ls.entries[ls.tos]
	ls.tos = e.below
	if ls.depth > 0 {
		ls.depth--
	}
	return e.addr, true
}

// SaveInto implements ReturnStack: only the pointer (and depth) is saved —
// the defining property of the self-checkpointing design.
func (ls *LinkedStack) SaveInto(c *Checkpoint) {
	c.valid = true
	c.tos = int(ls.tos)
	c.depth = ls.depth
}

// Restore implements ReturnStack.
func (ls *LinkedStack) Restore(c *Checkpoint) {
	if !c.valid {
		return
	}
	ls.stats.Restores++
	ls.tos = int32(c.tos)
	ls.depth = c.depth
	// ls.next deliberately keeps advancing: wrong-path pushes consumed
	// fresh slots, so the restored chain's entries were never overwritten
	// (unless allocation wrapped all the way around).
}

// Snapshot implements ReturnStack.
func (ls *LinkedStack) Snapshot() Snapshot {
	return Snapshot{links: slices.Clone(ls.entries), tos: int(ls.tos), next: ls.next, depth: ls.depth, stats: ls.stats}
}

// LoadSnapshot implements ReturnStack.
func (ls *LinkedStack) LoadSnapshot(sn *Snapshot) {
	if len(sn.links) != len(ls.entries) {
		panic(snapshotMismatch)
	}
	copy(ls.entries, sn.links)
	ls.tos, ls.next, ls.depth, ls.stats = int32(sn.tos), sn.next, sn.depth, sn.stats
}

// CloneStack implements ReturnStack.
func (ls *LinkedStack) CloneStack() ReturnStack {
	n := &LinkedStack{
		entries: make([]linkedEntry, len(ls.entries)),
		tos:     ls.tos,
		next:    ls.next,
		depth:   ls.depth,
	}
	copy(n.entries, ls.entries)
	return n
}
