package core

import "testing"

// TestSaveRestoreZeroAlloc pins the steady-state allocation behavior of the
// checkpoint hot path: once a checkpoint's backing storage exists, a
// push/save/pop/restore cycle must not allocate under any repair policy.
// The simulator leans on this — fetch takes a checkpoint at every in-flight
// branch, so a single allocation here multiplies by millions.
func TestSaveRestoreZeroAlloc(t *testing.T) {
	for _, pol := range Policies() {
		s := NewStack(32, pol)
		for i := 0; i < 40; i++ {
			s.Push(uint32(i)) // wrap the circular storage once
		}
		var cp Checkpoint
		s.SaveInto(&cp) // warm: the full policy allocates its buffer here
		s.Restore(&cp)
		allocs := testing.AllocsPerRun(200, func() {
			s.Push(0xdead)
			s.SaveInto(&cp)
			s.Pop()
			s.Restore(&cp)
		})
		if allocs != 0 {
			t.Errorf("policy %s: %.1f allocs per save/restore cycle, want 0", pol, allocs)
		}
	}
}

// TestSaveRestoreZeroAllocRecycled checks the reuse the pipeline's
// checkpoint table relies on: an entry re-saved in place after Invalidate,
// its buffer carved from an arena by MoveBuffer as a copied machine's
// table holds it, satisfies SaveInto without allocating and keeps that
// buffer.
func TestSaveRestoreZeroAllocRecycled(t *testing.T) {
	s := NewStack(32, RepairFullStack)
	var cp Checkpoint
	s.SaveInto(&cp)
	arena := cp.MoveBuffer(make([]uint32, 0, len(cp.Buffer())))
	if &cp.Buffer()[0] != &arena[0] {
		t.Fatal("MoveBuffer did not give the checkpoint the arena's copy")
	}
	allocs := testing.AllocsPerRun(200, func() {
		cp.Invalidate()
		s.Push(0xdead)
		s.SaveInto(&cp)
		s.Pop()
		s.Restore(&cp)
	})
	if allocs != 0 {
		t.Errorf("re-saved checkpoint: %.1f allocs per cycle, want 0", allocs)
	}
	if &cp.Buffer()[0] != &arena[0] {
		t.Error("SaveInto replaced the checkpoint's buffer")
	}
}

// TestInvalidateKeepsStorage checks Invalidate leaves the buffer in place
// for the next SaveInto.
func TestInvalidateKeepsStorage(t *testing.T) {
	s := NewStack(8, RepairFullStack)
	var cp Checkpoint
	s.SaveInto(&cp)
	cp.Invalidate()
	if cp.Valid() {
		t.Fatal("Invalidate did not clear validity")
	}
	s.Restore(&cp) // must be a no-op on an invalid checkpoint
	if got := s.Stats().Restores; got != 0 {
		t.Errorf("restores = %d, want 0 (restore of an invalid checkpoint)", got)
	}
	allocs := testing.AllocsPerRun(100, func() {
		s.SaveInto(&cp)
		cp.Invalidate()
	})
	if allocs != 0 {
		t.Errorf("SaveInto after Invalidate allocated %.1f times", allocs)
	}
}
