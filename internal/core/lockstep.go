package core

// Lockstep is the return stack of a lockstep unit: one pipeline carrying
// several machines that differ only in their return stacks. Until two of
// those stacks predict different return targets, the machines run
// cycle-identical pipelines, because the only thing a stack gives the
// pipeline is the target of each pop. Lockstep applies every push, pop,
// checkpoint and restore to each member's own stack and answers with the
// lead member's (the first's) result. A pop whose members return different
// targets marks the stack diverged: the pipeline then forks, and Split
// divides the members among the copies by the target they returned.
//
// Members may be circular stacks of any policy and size, top-K stacks of
// any K, or linked stacks; a valid-bits stack cannot be a member, because
// its pop validity, not only its target, steers the fetch engine.
//
// A Lockstep checkpoint packs every member's checkpoint into one buffer,
// each member's in a segment at a fixed offset (see SaveInto), so a copy
// carrying only some members restores exactly those members' segments
// from checkpoints taken before the split.
type Lockstep struct {
	members []member
	size    int // packed checkpoint length, over the unit's original members
	// scratch is the member checkpoint being packed or unpacked; its
	// buffer holds the largest member payload, so neither allocates.
	scratch  Checkpoint
	diverged bool
}

// member is one machine's stack in a Lockstep, with its last pop.
type member struct {
	stack   ReturnStack
	id      int // the caller's name for the member
	off     int // the member's segment offset in a packed checkpoint
	payload int // saved entries per checkpoint (a full stack, or top K)
	target  uint32
	ok      bool
}

// Packed segment layout: a member's segment is segHeader words (valid,
// tos, depth, top) followed by its payload.
const segHeader = 4

// NewLockstep returns a lockstep stack over stacks, naming stack i ids[i].
// It panics on a valid-bits stack.
func NewLockstep(stacks []ReturnStack, ids []int) *Lockstep {
	if len(stacks) == 0 || len(stacks) != len(ids) {
		panic("core: lockstep needs one id per member")
	}
	l := &Lockstep{members: make([]member, len(stacks))}
	most := 0
	for i, st := range stacks {
		m := &l.members[i]
		m.stack, m.id, m.off = st, ids[i], l.size
		switch s := st.(type) {
		case *TopKStack:
			m.payload = s.k
		case *Stack:
			if s.policy == RepairFullStack {
				m.payload = len(s.entries)
			}
		case *LinkedStack:
		default:
			panic("core: a lockstep member must be a circular, top-K or linked stack")
		}
		l.size += segHeader + m.payload
		most = max(most, m.payload)
	}
	l.scratch.full = make([]uint32, most)
	return l
}

// Len returns the number of members.
func (l *Lockstep) Len() int { return len(l.members) }

// Member returns member k's stack and name, the lead being member 0.
func (l *Lockstep) Member(k int) (ReturnStack, int) { return l.members[k].stack, l.members[k].id }

// Diverged reports whether a pop since the last Split returned different
// targets from different members.
func (l *Lockstep) Diverged() bool { return l.diverged }

// LastPop returns the lead member's last pop result.
func (l *Lockstep) LastPop() (uint32, bool) { return l.members[0].target, l.members[0].ok }

// Split divides the members by the target their last pop returned, one
// lockstep stack per distinct target in order of first appearance, so the
// lead's group comes first. The members themselves move into the new
// stacks (l must not be used again), and every new stack keeps l's
// checkpoint layout, so each restores its own members from checkpoints l
// took.
func (l *Lockstep) Split() []*Lockstep {
	var out []*Lockstep
	left := l.members
	for len(left) > 0 {
		t, n := left[0].target, 0
		for _, m := range left {
			if m.target == t {
				n++
			}
		}
		g := &Lockstep{members: make([]member, 0, n), size: l.size,
			scratch: Checkpoint{full: make([]uint32, cap(l.scratch.full))}}
		rest := left[:0] // filtered in place: l is not used again
		for _, m := range left {
			if m.target == t {
				g.members = append(g.members, m)
			} else {
				rest = append(rest, m)
			}
		}
		out, left = append(out, g), rest
	}
	return out
}

// Push implements ReturnStack.
func (l *Lockstep) Push(addr uint32) {
	for i := range l.members {
		l.members[i].stack.Push(addr)
	}
}

// Pop implements ReturnStack: every member pops, and the lead's result is
// the prediction. Members returning another target mark the divergence.
func (l *Lockstep) Pop() (uint32, bool) {
	for i := range l.members {
		m := &l.members[i]
		m.target, m.ok = m.stack.Pop()
		if m.target != l.members[0].target {
			l.diverged = true
		}
	}
	return l.members[0].target, l.members[0].ok
}

// SaveInto implements ReturnStack, packing each member's checkpoint into
// its segment of c. c is valid when any member saved state; a member that
// saved nothing (RepairNone) leaves a zero valid word, so its restore stays
// the no-op its own stack would make it.
func (l *Lockstep) SaveInto(c *Checkpoint) {
	if cap(c.full) < l.size {
		c.full = make([]uint32, l.size)
	}
	c.full = c.full[:l.size]
	c.valid = false
	sc := &l.scratch
	for i := range l.members {
		m := &l.members[i]
		m.stack.SaveInto(sc)
		seg := c.full[m.off : m.off+segHeader+m.payload]
		if !sc.valid {
			seg[0] = 0
			continue
		}
		c.valid = true
		seg[0], seg[1], seg[2], seg[3] = 1, uint32(sc.tos), uint32(sc.depth), sc.top
		copy(seg[segHeader:], sc.full[:m.payload])
	}
}

// Restore implements ReturnStack, repairing each member from its own
// segment of c.
func (l *Lockstep) Restore(c *Checkpoint) {
	if !c.valid {
		return
	}
	sc := &l.scratch
	for i := range l.members {
		m := &l.members[i]
		seg := c.full[m.off : m.off+segHeader+m.payload]
		if seg[0] == 0 {
			continue
		}
		sc.valid = true
		sc.tos, sc.depth, sc.top = int(int32(seg[1])), int(seg[2]), seg[3]
		sc.full = sc.full[:m.payload]
		copy(sc.full, seg[segHeader:])
		m.stack.Restore(sc)
	}
}

// Stats implements ReturnStack with the lead's counters; each member keeps
// its own.
func (l *Lockstep) Stats() *Stats { return l.members[0].stack.Stats() }

// Size implements ReturnStack with the lead's size.
func (l *Lockstep) Size() int { return l.members[0].stack.Size() }

// Depth implements ReturnStack with the lead's depth.
func (l *Lockstep) Depth() int { return l.members[0].stack.Depth() }

// CloneStack implements ReturnStack. Per-path stacks belong to multipath
// machines, which a lockstep unit never holds.
func (l *Lockstep) CloneStack() ReturnStack {
	panic("core: a lockstep stack is never cloned per path")
}

// Snapshot implements ReturnStack with the lead's snapshot.
func (l *Lockstep) Snapshot() Snapshot { return l.members[0].stack.Snapshot() }

// LoadSnapshot implements ReturnStack, loading sn into every member.
func (l *Lockstep) LoadSnapshot(sn *Snapshot) {
	for i := range l.members {
		l.members[i].stack.LoadSnapshot(sn)
	}
}

// Buffer returns the checkpoint's saved entries (a full-stack, top-K or
// lockstep checkpoint's; nil for the others).
func (c *Checkpoint) Buffer() []uint32 { return c.full }

// MoveBuffer copies c's saved entries to the end of arena (sized by the
// caller so that this allocates nothing) and makes that copy c's buffer,
// returning the extended arena. A machine copied mid-run gives its in-flight
// checkpoints buffers of their own this way: a buffer has one owner.
func (c *Checkpoint) MoveBuffer(arena []uint32) []uint32 {
	if c.full == nil {
		return arena
	}
	n := len(arena)
	arena = append(arena, c.full...)
	c.full = arena[n:len(arena):len(arena)]
	return arena
}

var _ ReturnStack = (*Lockstep)(nil)
