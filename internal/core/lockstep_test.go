package core

import (
	"reflect"
	"testing"
)

// lockstepMember builds member kind b%8 of a fuzzed unit: circular stacks
// of each policy and two sizes, top-K stacks, and a linked stack.
func lockstepMember(b byte) ReturnStack {
	switch b % 8 {
	case 0, 1, 2, 3:
		return NewStack(4+int(b/8%2)*12, Policies()[b%4])
	case 4:
		return NewTopKStack(8, int(b/8%9))
	case 5:
		return NewTopKStack(16, 1)
	case 6:
		return NewLinkedStack(6)
	}
	return NewStack(8, RepairFullStack)
}

// FuzzLockstep drives a lockstep stack and, beside it, an independent copy
// of each member through the same random pushes, pops, checkpoint saves,
// restores and splits. Every member must end each operation in its copy's
// state, the lockstep must answer every pop with the lead's result, and
// Diverged must report exactly whether some pop since the last split
// returned different targets. A restore after a split restores each
// surviving member from a checkpoint packed before the split.
func FuzzLockstep(f *testing.F) {
	f.Add([]byte{4, 0, 1, 2, 3, 0, 10, 0, 11, 1, 2, 0, 12, 3, 0, 1, 1, 4, 2})
	f.Add([]byte{5, 7, 3, 6, 0, 0, 9, 0, 9, 0, 9, 0, 9, 0, 9, 2, 1, 1, 1, 1, 3, 0, 4, 1, 1})
	f.Add([]byte{3, 12, 20, 28, 0, 1, 0, 1, 2, 1, 1, 1, 3, 1, 4, 0, 1, 1, 2, 3, 1, 4, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(data[0])%6
		if len(data) < 1+n {
			return
		}
		var members, refs []ReturnStack
		var ids []int
		for i := 0; i < n; i++ {
			members = append(members, lockstepMember(data[1+i]))
			refs = append(refs, lockstepMember(data[1+i]))
			ids = append(ids, i)
		}
		l := NewLockstep(members, ids)
		byID := func(id int) ReturnStack { return refs[id] }

		type saved struct {
			lock Checkpoint
			refs []Checkpoint // by member id
		}
		var cps []saved
		diverged := false
		ops := data[1+n:]
		for k := 0; k < len(ops); k++ {
			op := ops[k]
			switch op % 5 {
			case 0: // push
				addr := uint32(op) * 0x1001
				l.Push(addr)
				for k := 0; k < l.Len(); k++ {
					_, id := l.Member(k)
					byID(id).Push(addr)
				}
			case 1: // pop
				got, gotOK := l.Pop()
				for k := 0; k < l.Len(); k++ {
					_, id := l.Member(k)
					want, wantOK := byID(id).Pop()
					if k == 0 && (got != want || gotOK != wantOK) {
						t.Fatalf("op %d: lockstep popped %#x,%v; lead %#x,%v", k, got, gotOK, want, wantOK)
					}
					if want != got {
						diverged = true
					}
				}
			case 2: // save
				var c saved
				l.SaveInto(&c.lock)
				c.refs = make([]Checkpoint, n)
				for k := 0; k < l.Len(); k++ {
					_, id := l.Member(k)
					byID(id).SaveInto(&c.refs[id])
				}
				cps = append(cps, c)
			case 3: // restore a saved checkpoint, dropping younger ones
				if len(cps) == 0 {
					continue
				}
				j := int(op/5) % len(cps)
				l.Restore(&cps[j].lock)
				for k := 0; k < l.Len(); k++ {
					_, id := l.Member(k)
					byID(id).Restore(&cps[j].refs[id])
				}
				cps = cps[:j]
			case 4: // split, continuing with one group
				groups := l.Split()
				l = groups[int(op/5)%len(groups)]
				diverged = false
			}
			if l.Diverged() != diverged {
				t.Fatalf("op %d: Diverged() = %v, want %v", k, l.Diverged(), diverged)
			}
			for i := 0; i < l.Len(); i++ {
				m, id := l.Member(i)
				if got, want := m.Snapshot(), byID(id).Snapshot(); !reflect.DeepEqual(got, want) {
					t.Fatalf("op %d: member %d state %+v, want %+v", k, id, got, want)
				}
			}
		}
	})
}

// TestLockstepSaveRestoreZeroAlloc: once a packed checkpoint's buffer
// exists, saving into it and restoring from it allocate nothing, whatever
// the members' policies.
func TestLockstepSaveRestoreZeroAlloc(t *testing.T) {
	var members []ReturnStack
	for _, pol := range Policies() {
		members = append(members, NewStack(32, pol))
	}
	members = append(members, NewStack(8, RepairFullStack))
	l := NewLockstep(members, []int{0, 1, 2, 3, 4})
	for i := 0; i < 40; i++ {
		l.Push(uint32(i))
	}
	var cp Checkpoint
	l.SaveInto(&cp)
	l.Restore(&cp)
	allocs := testing.AllocsPerRun(200, func() {
		l.Push(0xdead)
		l.SaveInto(&cp)
		l.Pop()
		l.Restore(&cp)
	})
	if allocs != 0 {
		t.Errorf("%.1f allocs per lockstep save/restore cycle, want 0", allocs)
	}
}
