package pipeline

import "retstack/internal/isa"

// issueStage selects ready instructions oldest-first and sends them to
// functional units, respecting the issue width, per-class unit counts, and
// the MSHR bound on outstanding data-cache misses.
func (s *Sim) issueStage() {
	issueLeft := s.cfg.IssueWidth
	aluLeft := s.cfg.IntALUs
	mulLeft := s.cfg.IntMults
	memLeft := s.cfg.MemPorts
	s.expireMisses()

	// Walk only the unissued entries, oldest first. Issuing removes only
	// the entry just visited from the set, so no state re-check is needed.
	var w ruuWalk
	w.start(s.waiting, s.ruuHead)
	for issueLeft > 0 {
		idx := w.next()
		if idx < 0 {
			break
		}
		e := &s.ruu[idx]
		if !s.depsReady(e) {
			continue
		}

		var lat int
		switch {
		case e.execErr:
			// Bubble: drains through an ALU slot.
			if aluLeft == 0 {
				continue
			}
			aluLeft--
			lat = 1
		case e.class == isa.ClassMul:
			if mulLeft == 0 {
				continue
			}
			mulLeft--
			if e.inst.Op == isa.OpDIV || e.inst.Op == isa.OpREM {
				lat = s.cfg.DivLat
			} else {
				lat = s.cfg.MulLat
			}
		case e.isLoad:
			if memLeft == 0 {
				continue
			}
			forwarded, ready := s.loadForwarding(idx, e)
			if !ready {
				continue // must wait behind an unissued matching store
			}
			if forwarded {
				memLeft--
				lat = 1
				break
			}
			// A cache access: if it would miss, it needs a free MSHR
			// before the (state-mutating) access happens.
			if !s.hier.L1D.Probe(e.memAddr) && s.cfg.MSHRs > 0 && len(s.misses) >= s.cfg.MSHRs {
				continue // all miss registers busy: the load waits
			}
			l := s.hier.L1D.Access(e.memAddr, false)
			if l > s.cfg.L1D.HitLatency {
				s.allocMSHR(uint64(l))
			}
			memLeft--
			lat = l
		case e.isStore:
			if memLeft == 0 {
				continue
			}
			memLeft--
			lat = 1 // address generation; the write happens at commit
		default:
			if aluLeft == 0 {
				continue
			}
			aluLeft--
			lat = 1
		}

		s.ruuState[idx] |= ruuIssued
		s.waiting.remove(idx)
		s.inflight.add(idx)
		e.completeAt = s.cycle + uint64(lat)
		issueLeft--
	}
}

// depsReady reports whether both producers (if any) have completed.
func (s *Sim) depsReady(e *ruuEntry) bool {
	for i := 0; i < 2; i++ {
		idx := e.depIdx[i]
		if idx == invalidIdx {
			continue
		}
		if st := s.ruuState[idx]; st&ruuValid == 0 || st&ruuCompleted != 0 {
			continue
		}
		if s.ruu[idx].seq == e.depSeq[i] {
			return false
		}
	}
	return true
}

// loadForwarding resolves a load's LSQ interaction at issue. Addresses of
// older stores are known at dispatch (perfect disambiguation): a load
// matching an older in-flight store forwards from the LSQ in one cycle
// once that store has issued (forwarded=true); a match on an unissued
// store is not ready yet; no match means the load goes to the data cache.
func (s *Sim) loadForwarding(loadIdx int, e *ruuEntry) (forwarded, ready bool) {
	// Scan older entries (newest-first so the youngest matching store wins).
	word := e.memAddr &^ 3
	pos := (loadIdx - s.ruuHead + len(s.ruu)) % len(s.ruu)
	idx := loadIdx
	for k := pos - 1; k >= 0; k-- {
		if idx == 0 {
			idx = len(s.ruu)
		}
		idx--
		st := s.ruuState[idx]
		if st&ruuValid == 0 || st&ruuSquashed != 0 {
			continue
		}
		p := &s.ruu[idx]
		if !p.isStore || p.memAddr&^3 != word {
			continue
		}
		if st&ruuIssued == 0 {
			return false, false // forwarding data not ready yet
		}
		return true, true // store-to-load forwarding
	}
	return false, true
}

// writebackStage completes instructions whose functional units finish this
// cycle and resolves control transfers: forked branches squash their losing
// side, and mispredicted correct-path branches trigger recovery (squash,
// refetch, and return-address-stack repair).
func (s *Sim) writebackStage() {
	// Walk only the in-flight entries, oldest first. A recovery below
	// squashes younger entries the walk may already hold (see ruuWalk), so
	// each visited entry's state is checked again.
	var w ruuWalk
	w.start(s.inflight, s.ruuHead)
	for {
		idx := w.next()
		if idx < 0 {
			break
		}
		if s.ruuState[idx] != ruuValid|ruuIssued {
			continue
		}
		e := &s.ruu[idx]
		if e.completeAt > s.cycle {
			continue
		}
		s.ruuState[idx] |= ruuCompleted
		s.inflight.remove(idx)
		s.emit(TraceComplete, e.seq, e.pathTok, e.pc, e.inst, 0)

		if e.forked {
			s.emit(TraceForkResolve, e.seq, e.pathTok, e.pc, e.inst, e.actualNPC)
			s.resolveFork(e)
		} else if e.recovers {
			s.recover(e)
		}
		// The branch is resolved; its shadow checkpoint is dead either way.
		s.releaseCheckpoint(&e.fetchSlot)
	}
}

// expireMisses retires completed entries from the outstanding-miss queue.
func (s *Sim) expireMisses() {
	kept := s.misses[:0]
	for _, at := range s.misses {
		if at > s.cycle {
			kept = append(kept, at)
		}
	}
	s.misses = kept
}

// allocMSHR records an outstanding miss completing lat cycles from now
// (no-op when unbounded: nothing ever consults the queue then).
func (s *Sim) allocMSHR(lat uint64) {
	if s.cfg.MSHRs == 0 {
		return
	}
	s.misses = append(s.misses, s.cycle+lat)
}

// releaseCheckpoint frees a slot's or an entry's shadow slot and its
// checkpoint handle. Safe to call more than once (resolution and commit
// both release).
func (s *Sim) releaseCheckpoint(sl *fetchSlot) {
	if sl.hasCheckpoint {
		s.shadowUsed--
		sl.hasCheckpoint = false
		s.recycleCheckpoint(sl.checkpoint)
		sl.checkpoint = 0
	}
}

// recycleCheckpoint invalidates checkpoint h and returns its handle to the
// free stack; the entry keeps its buffer for the next SaveInto.
func (s *Sim) recycleCheckpoint(h int32) {
	s.cpTable[h].Invalidate()
	s.cpHandles = append(s.cpHandles, h)
}

// lendCheckpointBuffer lends a free checkpoint handle for a save. The
// table has a handle for every fetch-queue slot and RUU entry, and the
// slot asking holds none, so one is always free.
func (s *Sim) lendCheckpointBuffer() int32 {
	n := len(s.cpHandles) - 1
	h := s.cpHandles[n]
	s.cpHandles = s.cpHandles[:n]
	return h
}
