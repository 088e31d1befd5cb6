package pipeline

import "fmt"

// CheckInvariants audits the simulator's internal bookkeeping and returns
// the first violation found. It is O(RUU + fetchQ + paths) and intended
// for tests and debugging, not for the hot loop.
func (s *Sim) CheckInvariants() error {
	// RUU occupancy.
	valid := 0
	lsqHeld := 0
	checkpoints := 0
	owners := make(cpOwners, len(s.cpTable))
	for i := range s.ruu {
		e := &s.ruu[i]
		st := s.ruuState[i]
		// The candidate sets mirror the two exact states issue and
		// writeback look for.
		if s.waiting.has(i) != (st == ruuValid) {
			return fmt.Errorf("invariant: RUU slot %d state %#x but waiting=%v", i, st, s.waiting.has(i))
		}
		if s.inflight.has(i) != (st == ruuValid|ruuIssued) {
			return fmt.Errorf("invariant: RUU slot %d state %#x but inflight=%v", i, st, s.inflight.has(i))
		}
		if st&ruuValid == 0 {
			if st != 0 {
				return fmt.Errorf("invariant: invalid RUU slot %d has state bits %#x", i, st)
			}
			continue
		}
		valid++
		if e.lsqHeld {
			lsqHeld++
		}
		if e.hasCheckpoint {
			checkpoints++
		}
		if err := owners.hold(&e.fetchSlot); err != nil {
			return err
		}
		if st&ruuSquashed != 0 && st&ruuCompleted == 0 {
			return fmt.Errorf("invariant: squashed entry seq %d not completed", e.seq)
		}
		if st&ruuIssued != 0 && e.completeAt == 0 && st&ruuCompleted == 0 {
			return fmt.Errorf("invariant: issued entry seq %d has no completion time", e.seq)
		}
	}
	if valid != s.ruuCount {
		return fmt.Errorf("invariant: %d valid RUU entries but ruuCount=%d", valid, s.ruuCount)
	}
	if lsqHeld != s.lsqCount {
		return fmt.Errorf("invariant: %d LSQ holders but lsqCount=%d", lsqHeld, s.lsqCount)
	}
	if s.lsqCount > s.cfg.LSQSize {
		return fmt.Errorf("invariant: lsqCount %d exceeds LSQ size %d", s.lsqCount, s.cfg.LSQSize)
	}

	// Shadow checkpoint accounting (fetch-queue slots hold some too). Every
	// checkpoint handle but 0, whose entry is never valid, is held by one
	// live slot or valid entry, or is free, once.
	for k := 0; k < s.fetchQLen; k++ {
		sl := &s.fetchQ[(s.fetchQHead+k)%len(s.fetchQ)]
		if sl.hasCheckpoint {
			checkpoints++
		}
		if err := owners.hold(sl); err != nil {
			return err
		}
	}
	for _, h := range s.cpHandles {
		if err := owners.claim(h, cpFreed); err != nil {
			return err
		}
	}
	if n := checkpoints + len(s.cpHandles); n != len(s.cpTable)-1 {
		return fmt.Errorf("invariant: %d of %d checkpoint handles are held or free", n, len(s.cpTable)-1)
	}
	if s.cpTable[0].Valid() {
		return fmt.Errorf("invariant: checkpoint table entry 0 is valid")
	}
	if checkpoints != s.shadowUsed {
		return fmt.Errorf("invariant: %d live checkpoints but shadowUsed=%d", checkpoints, s.shadowUsed)
	}
	if s.cfg.ShadowSlots > 0 && s.shadowUsed > s.cfg.ShadowSlots {
		return fmt.Errorf("invariant: shadowUsed %d exceeds %d slots", s.shadowUsed, s.cfg.ShadowSlots)
	}

	// Path bookkeeping. Tokens must be unique among live slots: the
	// scan-based pathByToken must resolve each live path to exactly its own
	// slot. A thread has at most one correct path, and a live path carries
	// an overlay that falls through to its own thread's machine, as
	// emu.Execute assumes.
	live := 0
	correct := make([]int, len(s.threads))
	for i := range s.paths {
		p := &s.paths[i]
		if !p.live {
			continue
		}
		live++
		if p.correct {
			if correct[p.thread]++; correct[p.thread] > 1 {
				return fmt.Errorf("invariant: %d paths of thread %d claim to be the correct path", correct[p.thread], p.thread)
			}
		}
		if got := s.pathByToken(p.token); got != p {
			return fmt.Errorf("invariant: path token %d does not resolve to its slot", p.token)
		}
		if p.overlay == nil {
			return fmt.Errorf("invariant: live path token %d has no overlay", p.token)
		}
		if p.overlay.Base() != s.threadOf(p).mach {
			return fmt.Errorf("invariant: live path token %d's overlay falls through to another thread's machine", p.token)
		}
	}
	if live != s.liveCount {
		return fmt.Errorf("invariant: %d live paths but liveCount=%d", live, s.liveCount)
	}
	// Every RUU entry's token refers to a live path or is squashed.
	for i := range s.ruu {
		e := &s.ruu[i]
		st := s.ruuState[i]
		if st&ruuValid != 0 && st&ruuSquashed == 0 && s.pathByToken(e.pathTok) == nil {
			return fmt.Errorf("invariant: live entry seq %d owned by dead path %d", e.seq, e.pathTok)
		}
	}
	if s.fetchQLen < 0 || s.fetchQLen > len(s.fetchQ) {
		return fmt.Errorf("invariant: fetchQLen %d out of range", s.fetchQLen)
	}
	return nil
}

// cpOwners records, per checkpoint handle, who holds it while
// CheckInvariants walks the slots: the holder's seq + 1, cpFreed for the
// free stack, or 0.
type cpOwners []uint64

const cpFreed = ^uint64(0)

// hold claims sl's handle for sl: a slot holds a handle in the table while
// hasCheckpoint is set, and handle 0 otherwise.
func (o cpOwners) hold(sl *fetchSlot) error {
	switch {
	case sl.hasCheckpoint:
		return o.claim(sl.checkpoint, sl.seq+1)
	case sl.checkpoint != 0:
		return fmt.Errorf("invariant: seq %d holds checkpoint handle %d without a checkpoint", sl.seq, sl.checkpoint)
	}
	return nil
}

// claim records handle h's owner, failing when h is outside the table or
// already claimed. Holders claim before the free stack does.
func (o cpOwners) claim(h int32, by uint64) error {
	switch {
	case h <= 0 || int(h) >= len(o):
		return fmt.Errorf("invariant: checkpoint handle %d is outside the table", h)
	case o[h] == cpFreed:
		return fmt.Errorf("invariant: checkpoint handle %d is free twice", h)
	case o[h] != 0 && by == cpFreed:
		return fmt.Errorf("invariant: checkpoint handle %d is free but held by seq %d", h, o[h]-1)
	case o[h] != 0:
		return fmt.Errorf("invariant: checkpoint handle %d is held by seq %d and seq %d", h, o[h]-1, by-1)
	}
	o[h] = by
	return nil
}

// StepForTest advances one cycle (test hook).
func (s *Sim) StepForTest() error {
	s.step()
	return s.runErr
}
