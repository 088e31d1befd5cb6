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

	// Shadow checkpoint accounting (fetch-queue slots hold some too).
	for k := 0; k < s.fetchQLen; k++ {
		if s.fetchQ[(s.fetchQHead+k)%len(s.fetchQ)].hasCheckpoint {
			checkpoints++
		}
	}
	if checkpoints != s.shadowUsed {
		return fmt.Errorf("invariant: %d live checkpoints but shadowUsed=%d", checkpoints, s.shadowUsed)
	}
	if s.cfg.ShadowSlots > 0 && s.shadowUsed > s.cfg.ShadowSlots {
		return fmt.Errorf("invariant: shadowUsed %d exceeds %d slots", s.shadowUsed, s.cfg.ShadowSlots)
	}

	// Path bookkeeping. Tokens must be unique among live slots: the
	// scan-based pathByToken must resolve each live path to exactly its own
	// slot, and a live path must carry an overlay.
	live := 0
	correct := 0
	for i := range s.paths {
		p := &s.paths[i]
		if !p.live {
			continue
		}
		live++
		if p.correct {
			correct++
		}
		if got := s.pathByToken(p.token); got != p {
			return fmt.Errorf("invariant: path token %d does not resolve to its slot", p.token)
		}
		if p.overlay == nil {
			return fmt.Errorf("invariant: live path token %d has no overlay", p.token)
		}
	}
	if live != s.liveCount {
		return fmt.Errorf("invariant: %d live paths but liveCount=%d", live, s.liveCount)
	}
	if correct > 1 {
		return fmt.Errorf("invariant: %d paths claim to be the correct path", correct)
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

// StepForTest advances one cycle (test hook).
func (s *Sim) StepForTest() error {
	s.step()
	return s.runErr
}
