package pipeline

import (
	"retstack/internal/emu"
	"retstack/internal/isa"
)

// dispatchStage moves up to DecodeWidth instructions from the fetch queue
// into the RUU, executing each functionally — against architectural state
// on the correct path, against the owning path's overlay otherwise. This is
// where mispredictions are discovered (the outcome is compared with the
// fetch-time prediction) and where fork winners are settled.
func (s *Sim) dispatchStage() {
	for n := 0; n < s.cfg.DecodeWidth; n++ {
		if s.fetchQLen == 0 {
			return
		}
		slot := &s.fetchQ[s.fetchQHead]
		if slot.readyAt > s.cycle {
			return // models front-end depth
		}
		p := s.pathByToken(slot.pathTok)
		if p == nil {
			// The owning path was killed after this slot was enqueued but
			// before a flush could see it; drop it as wrong-path work.
			s.dropFetchSlot(slot)
			s.popFetchSlot()
			continue
		}
		if s.threadOf(p).drainExit {
			// Instructions fetched past this thread's exit syscall are
			// junk; drop them so other threads keep dispatching.
			s.dropFetchSlot(slot)
			s.popFetchSlot()
			continue
		}
		if s.ruuCount == len(s.ruu) {
			return
		}
		isMem := slot.class == isa.ClassLoad || slot.class == isa.ClassStore
		if isMem && s.lsqCount == s.cfg.LSQSize {
			return
		}

		// Read the registers from the slot, before it moves: loads from
		// the entry just after the copy wait on its stores.
		dest := slot.inst.DestReg()
		src1, src2 := slot.inst.SrcRegs()
		isCtrl := slot.class.IsControl()
		e := &s.ruu[s.ruuTail]
		s.ruuState[s.ruuTail] = ruuValid
		s.waiting.add(s.ruuTail)
		e.fetchSlot = *slot // the checkpoint handle moves with the slot
		e.ruuExec = ruuExec{}
		e.depIdx = [2]int{invalidIdx, invalidIdx}
		e.destReg = dest
		e.isCtrl = isCtrl
		s.popFetchSlot()

		s.executeAtDispatch(p, e)
		s.wireDependencies(p, e, src1, src2)
		s.emit(TraceDispatch, e.seq, e.pathTok, e.pc, e.inst, e.actualNPC)

		if isMem {
			e.lsqHeld = true
			s.lsqCount++
		}
		if s.ruuTail++; s.ruuTail == len(s.ruu) {
			s.ruuTail = 0
		}
		s.ruuCount++
		if s.runErr != nil {
			return
		}
	}
}

func (s *Sim) popFetchSlot() {
	if s.fetchQHead++; s.fetchQHead == len(s.fetchQ) {
		s.fetchQHead = 0
	}
	s.fetchQLen--
}

// dropFetchSlot accounts a never-dispatched slot as wrong-path work and
// recycles its checkpoint buffer. The squash event it emits carries the
// slot's RAS side effects (FlagDropped distinguishes it from an RUU
// squash), so the attribution layer sees wrong-path pushes and pops that
// died in the fetch queue too.
func (s *Sim) dropFetchSlot(slot *fetchSlot) {
	if slot.rasPushed {
		s.stats.WrongPathPushes++
	}
	if slot.rasPopped {
		s.stats.WrongPathPops++
	}
	s.releaseCheckpoint(slot)
	s.emitA(TraceSquash, slot.seq, slot.pathTok, slot.pc, slot.inst, 0,
		slot.rasAux,
		rasActivityFlags(slot.rasPushed, slot.rasPopped, slot.rasUnderflow)|FlagDropped)
}

// executeAtDispatch runs the instruction functionally and fills in the
// resolution fields.
func (s *Sim) executeAtDispatch(p *path, e *ruuEntry) {
	th := s.threadOf(p)
	if p.correct {
		if e.pc != th.mach.PC {
			s.fail("correct-path dispatch at pc=%#x but architectural pc=%#x (seq %d, thread %d)",
				e.pc, th.mach.PC, e.seq, th.id)
			return
		}
		res, err := emu.Execute(th.mach, nil, e.pc, &e.inst)
		if err != nil {
			s.fail("architectural fault at pc=%#x (%s): %v", e.pc, e.inst.Disasm(e.pc), err)
			return
		}
		th.mach.PC = res.NextPC
		s.fillOutcome(e, res)
		e.syscall, e.syscallArg = res.Syscall, res.SyscallArg
		if res.Syscall == emu.SysExit {
			th.drainExit = true
			p.fetchDead = true // nothing after exit is worth fetching
		}

		if e.forked {
			s.settleFork(p, e)
		} else if e.predNPC != res.NextPC {
			// Misprediction discovered: the path goes speculative; the
			// recovery fires when this entry resolves at writeback.
			e.mispred = true
			e.recovers = true
			p.correct = false
			p.overlay.Reset()
		}
		return
	}

	// Wrong path: execute against the overlay, which falls through to the
	// thread's machine. Faults (data fetched as code, garbage addresses)
	// turn the instruction into a bubble.
	res, err := emu.Execute(th.mach, p.overlay, e.pc, &e.inst)
	if err != nil {
		e.execErr = true
		return
	}
	s.fillOutcome(e, res)
	if e.forked {
		s.settleFork(p, e)
	} else if e.isCtrl && e.predNPC != res.NextPC {
		// A wrong-path branch that would itself mispredict: note it for
		// statistics, but wrong-path branches never trigger recovery —
		// the whole path is squashed when the real misprediction resolves.
		e.mispred = true
	}
}

// fillOutcome fills the entry's resolution fields from res.
func (s *Sim) fillOutcome(e *ruuEntry, res emu.Result) {
	e.actualNPC = res.NextPC
	e.actualTaken = res.Taken
	e.isLoad, e.isStore, e.memAddr = res.Load, res.Store, res.Addr
}

// settleFork decides, at the forked branch's dispatch, which side will be
// squashed when the branch resolves, and prepares the child context.
func (s *Sim) settleFork(p *path, e *ruuEntry) {
	child := s.pathByToken(e.childToken)
	if child == nil {
		// Child was already killed by an older recovery; resolution will
		// have nothing to do on that side.
		e.loserParent = !e.actualTaken && p.correct
		if e.loserParent {
			p.correct = false
			p.overlay.Reset()
		}
		return
	}
	// The child inherits the parent's rename state as of the fork point
	// (no child instruction can have dispatched yet: the queue is FIFO).
	child.creatorIdx = p.creatorIdx
	child.creatorSeq = p.creatorSeq

	if p.correct {
		if e.actualTaken {
			// Parent side (taken) wins; the child is doomed but keeps
			// executing until resolution, corrupting shared state.
			child.correct = false
			child.overlay.Reset()
			e.loserToken = child.token
		} else {
			child.correct = true
			e.loserParent = true
			p.correct = false
			p.overlay.Reset()
		}
		return
	}
	// Fork taken on an already-wrong path: both sides are wrong. The
	// overlay outcome still picks which side resolution squashes. The
	// child's fork-time overlay is superseded by a copy of the parent's
	// speculative state; recycle it rather than dropping it to the GC.
	child.correct = false
	s.recycleOverlay(child.overlay)
	child.overlay = s.cloneOverlay(p.overlay)
	if e.execErr || e.actualTaken {
		e.loserToken = child.token
	} else {
		e.loserParent = true
	}
}

// wireDependencies records the producing RUU slots of source registers s1
// and s2 for issue timing and installs this entry as the newest producer
// of its destination.
func (s *Sim) wireDependencies(p *path, e *ruuEntry, s1, s2 int) {
	for slotNo, r := range [2]int{s1, s2} {
		if r <= 0 { // no operand, or $zero (always ready)
			continue
		}
		idx := p.creatorIdx[r]
		if idx == invalidIdx {
			continue
		}
		if st := s.ruuState[idx]; st&ruuValid == 0 || st&ruuCompleted != 0 {
			continue
		}
		prod := &s.ruu[idx]
		if prod.seq == p.creatorSeq[r] {
			e.depIdx[slotNo] = idx
			e.depSeq[slotNo] = prod.seq
		}
	}
	if e.destReg >= 0 {
		p.creatorIdx[e.destReg] = s.ruuTail
		p.creatorSeq[e.destReg] = e.seq
	}
}
