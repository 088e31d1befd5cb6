package pipeline

import (
	"retstack/internal/config"
	"retstack/internal/core"
	"retstack/internal/isa"
)

// fetchStage fetches up to FetchWidth instructions this cycle, shared
// round-robin among live path contexts. Within a path, fetch follows
// predictions through not-taken branches and stops at the first taken
// control transfer (the paper's fetch-engine rule). The return-address
// stack is updated speculatively here — on every path, right or wrong —
// which is precisely how it gets corrupted.
func (s *Sim) fetchStage() {
	budget := s.cfg.FetchWidth
	if s.liveCount == 0 {
		return
	}
	start := int(s.cycle) % len(s.paths)
	for off := 0; off < len(s.paths) && budget > 0; off++ {
		p := &s.paths[(start+off)%len(s.paths)]
		if !p.live || p.fetchDead || p.stalledUntil > s.cycle {
			continue
		}
		budget = s.fetchPath(p, budget)
	}
}

// fetchPath fetches instructions for one path until the budget, the fetch
// queue, a taken branch, or an I-cache miss stops it. It returns the
// remaining budget.
func (s *Sim) fetchPath(p *path, budget int) int {
	lineBytes := uint32(s.hier.L1I.LineBytes())
	mach := s.threadOf(p).mach
	for budget > 0 {
		if s.fetchQLen == len(s.fetchQ) {
			return budget
		}
		pc := p.fetchPC

		// One I-cache access per line; a miss stalls this path.
		line := pc / lineBytes
		if line+1 != p.lastLine {
			lat := s.hier.L1I.Access(pc, false)
			p.lastLine = line + 1
			if lat > s.cfg.L1I.HitLatency {
				p.stalledUntil = s.cycle + uint64(lat)
				return budget
			}
		}

		// Basic-block fetch: the plane's block table says how many
		// straight-line instructions begin at pc, so pull them into the
		// fetch queue in one run — predictControl is a no-op for every one
		// of them (provably non-control), so the slots need only sequential
		// predNPCs. Capped at the budget, the queue space, and the current
		// cache line; the next line gets its own access/stall check at the
		// top of the loop. The run's instructions and classes come from the
		// plane in one call that counts the same predecode hits as one
		// FetchInstClass per instruction, and every instruction still gets
		// its own slot and trace event (the TraceBlock marker is
		// additional, not a substitute).
		if body := mach.FetchBlockBody(pc); body > 0 {
			take := min(body, budget, len(s.fetchQ)-s.fetchQLen,
				int((lineBytes-pc%lineBytes)/isa.WordBytes))
			s.emitA(TraceBlock, s.nextSeq+1, p.token, pc, isa.Inst{},
				uint32(take), uint32(body), 0)
			insts, classes := mach.FetchBlockInsts(pc, take)
			for i := range insts {
				budget--
				s.stats.Fetched++
				s.nextSeq++
				tail := s.fetchQHead + s.fetchQLen
				if tail >= len(s.fetchQ) {
					tail -= len(s.fetchQ)
				}
				slot := &s.fetchQ[tail]
				slot.reset(s.nextSeq, p.token, pc, &insts[i], classes[i], s.cycle+uint64(s.cfg.BranchLat))
				s.fetchQLen++
				s.emit(TraceFetch, slot.seq, p.token, pc, insts[i], slot.predNPC)
				pc += isa.WordBytes
			}
			p.fetchPC = pc
			continue
		}

		// Fetch through the predecode plane: two table loads (instruction
		// and precomputed class) for in-segment PCs, Read32+Decode+classify
		// otherwise (identical result, see FetchInstClass).
		in, cl := mach.FetchInstClass(pc)
		budget--
		s.stats.Fetched++
		s.nextSeq++

		// Fill the slot in its ring position, with no checkpoint:
		// takeCheckpoint lends it a table handle when it needs one.
		tail := s.fetchQHead + s.fetchQLen
		if tail >= len(s.fetchQ) {
			tail -= len(s.fetchQ)
		}
		slot := &s.fetchQ[tail]
		slot.reset(s.nextSeq, p.token, pc, &in, cl, s.cycle+uint64(s.cfg.BranchLat))

		stop := s.predictControl(p, slot)
		s.fetchQLen++
		s.emit(TraceFetch, slot.seq, p.token, pc, in, slot.predNPC)
		p.fetchPC = slot.predNPC
		if stop {
			return budget
		}
	}
	return budget
}

// predictControl fills the slot's prediction fields, performs speculative
// RAS updates and checkpointing, and decides whether to fork. It reports
// whether fetch must stop for this path this cycle (predicted-taken
// transfer).
func (s *Sim) predictControl(p *path, slot *fetchSlot) bool {
	in := slot.inst
	pc := slot.pc
	switch slot.class {
	case isa.ClassJump:
		slot.predNPC = in.DirectTarget(pc)
		slot.predTaken = true
		return true

	case isa.ClassCall:
		if p.ras != nil {
			s.rasPush(p, slot, in.ReturnAddress(pc))
			slot.rasPushed = true
		}
		slot.predNPC = in.DirectTarget(pc)
		slot.predTaken = true
		return true

	case isa.ClassCondBranch:
		// Query the predictor regardless (it trains at commit, and the
		// confidence estimator needs the would-be prediction even when the
		// branch forks instead).
		if s.cfg.SpecHistory {
			slot.histSnap = s.hybrid.Snapshot(pc)
		}
		slot.predTaken = s.dirPred.Predict(pc)
		if s.cfg.SpecHistory {
			s.hybrid.SpecShift(pc, slot.predTaken)
		}
		if s.tryFork(p, slot) {
			// Parent follows the taken side; the child follows fall-through.
			slot.predNPC = in.DirectTarget(pc)
			return true
		}
		if slot.predTaken {
			slot.predNPC = in.DirectTarget(pc)
			s.takeCheckpoint(p, slot)
			return true
		}
		s.takeCheckpoint(p, slot)
		return false

	case isa.ClassReturn:
		if s.cfg.SpecHistory {
			slot.histSnap = s.hybrid.Snapshot(pc)
		}
		switch {
		case p.ras != nil:
			popSlot := -1
			if s.tracer != nil {
				if ins, ok := p.ras.(core.Inspector); ok {
					popSlot = ins.TOSIndex() // slot the pop is about to read
				}
			}
			target, valid := p.ras.Pop()
			slot.rasPopped = true
			slot.fromRAS = true
			slot.predNPC = target
			slot.rasAux = PackRASAux(p.rasID, popSlot)
			if !valid {
				slot.rasUnderflow = true
				// The valid-bits design detects corrupt/empty entries and
				// consults the BTB instead of a known-bad address.
				if _, tagged := p.ras.(core.SeqRepairer); tagged {
					slot.fromRAS = false
					slot.predNPC = slot.inst.FallThrough(pc)
					if t, ok := s.btb.Lookup(pc); ok {
						slot.predNPC = t
					}
				}
			}
			if s.tracer != nil {
				fl := FlagRASPop | FlagReturn
				if slot.rasUnderflow {
					fl |= FlagUnderflow
				}
				if slot.fromRAS {
					fl |= FlagFromRAS
				}
				s.emitEvent(TraceRASPop, slot.seq, p.token, pc, in,
					target, slot.rasAux, fl)
			}
		case s.cfg.ReturnPred == config.ReturnTargetCache:
			if target, ok := s.tcache.Predict(pc); ok {
				slot.predNPC = target
			}
		default:
			if target, ok := s.btb.Lookup(pc); ok {
				slot.predNPC = target
			}
		}
		// On a BTB miss without a RAS the fall-through stands in: the
		// front end has nowhere to redirect until the return resolves.
		slot.predTaken = true
		s.takeCheckpoint(p, slot)
		return true

	case isa.ClassIndirect:
		if s.cfg.SpecHistory {
			slot.histSnap = s.hybrid.Snapshot(pc)
		}
		if target, ok := s.predictIndirect(pc); ok {
			slot.predNPC = target
		}
		slot.predTaken = true
		s.takeCheckpoint(p, slot)
		return true

	case isa.ClassIndirectCall:
		if s.cfg.SpecHistory {
			slot.histSnap = s.hybrid.Snapshot(pc)
		}
		if p.ras != nil {
			s.rasPush(p, slot, in.ReturnAddress(pc))
			slot.rasPushed = true
		}
		if target, ok := s.predictIndirect(pc); ok {
			slot.predNPC = target
		}
		slot.predTaken = true
		s.takeCheckpoint(p, slot)
		return true
	}
	return false
}

// rasPush pushes a return address, carrying the fetch sequence number to
// tag-based (valid-bits) stacks. With a tracer attached it also records
// the push: which physical slot was written (read back from the stack
// after the push) and whether the push wrapped a full stack — the two
// facts misprediction attribution needs to tell an overwrite from a wrap.
func (s *Sim) rasPush(p *path, slot *fetchSlot, addr uint32) {
	if s.tracer == nil {
		if sr, ok := p.ras.(core.SeqRepairer); ok {
			sr.PushSeq(addr, slot.seq)
			return
		}
		p.ras.Push(addr)
		return
	}
	fl := FlagRASPush
	if p.ras.Depth() == p.ras.Size() {
		fl |= FlagOverflow
	}
	if sr, ok := p.ras.(core.SeqRepairer); ok {
		sr.PushSeq(addr, slot.seq)
	} else {
		p.ras.Push(addr)
	}
	idx := -1
	if ins, ok := p.ras.(core.Inspector); ok {
		idx = ins.TOSIndex() // slot the push just wrote
	}
	slot.rasAux = PackRASAux(p.rasID, idx)
	s.emitEvent(TraceRASPush, slot.seq, p.token, slot.pc, slot.inst,
		addr, slot.rasAux, fl)
}

// predictIndirect predicts a non-return indirect target from the
// configured structure.
func (s *Sim) predictIndirect(pc uint32) (uint32, bool) {
	if s.cfg.IndirectPred == config.IndirectTargetCache {
		return s.tcache.Predict(pc)
	}
	return s.btb.Lookup(pc)
}

// takeCheckpoint saves RAS shadow state for a branch that may need repair,
// respecting the bounded shadow storage ("at most a few in-flight branches
// — 4 in the R10000, 20 in the 21264").
func (s *Sim) takeCheckpoint(p *path, slot *fetchSlot) {
	if p.ras == nil {
		return
	}
	h := s.lendCheckpointBuffer()
	p.ras.SaveInto(&s.cpTable[h])
	if !s.cpTable[h].Valid() {
		s.recycleCheckpoint(h) // the policy saved nothing
		return
	}
	if s.cfg.ShadowSlots > 0 && s.shadowUsed >= s.cfg.ShadowSlots {
		s.stats.CheckpointsDenied++
		s.recycleCheckpoint(h)
		s.emitA(TraceCheckpoint, slot.seq, p.token, slot.pc, slot.inst,
			0, uint32(s.shadowUsed), FlagDenied)
		return
	}
	s.shadowUsed++
	slot.checkpoint, slot.hasCheckpoint = h, true
	s.emitA(TraceCheckpoint, slot.seq, p.token, slot.pc, slot.inst,
		0, uint32(s.shadowUsed), 0)
}

// tryFork decides whether to fork a conditional branch instead of
// predicting it, and if so allocates the child path context.
func (s *Sim) tryFork(p *path, slot *fetchSlot) bool {
	if s.cfg.MaxPaths <= 1 || s.liveCount >= s.cfg.MaxPaths {
		return false
	}
	if s.conf.High(slot.pc) {
		return false // confident prediction: cheaper than forking
	}
	var child *path
	for i := range s.paths {
		if !s.paths[i].live {
			child = &s.paths[i]
			child.id = i
			break
		}
	}
	if child == nil {
		return false
	}

	s.nextToken++
	*child = path{
		id:          child.id,
		thread:      p.thread,
		token:       s.nextToken,
		live:        true,
		parentToken: p.token,
		forkSeq:     slot.seq,
		fetchPC:     slot.inst.FallThrough(slot.pc),
		correct:     false, // settled when the branch dispatches
	}
	child.resetCreators()
	child.overlay = s.takeOverlay(s.threadOf(p).mach)
	child.ras = s.pathStack(p.ras)
	if child.ras == nil || child.ras == p.ras {
		child.rasID = p.rasID // shares the parent's physical stack
	} else {
		s.nextRasID++ // per-path clone: a new physical stack
		child.rasID = s.nextRasID
	}
	s.liveCount++

	// Under the unified-with-repair organization the fork itself takes a
	// checkpoint so the stack can be restored when the branch resolves.
	if s.cfg.MPStacks == config.MPUnifiedRepair {
		s.takeCheckpoint(p, slot)
	}

	slot.forked = true
	slot.childToken = child.token
	s.stats.Forks++
	s.emit(TraceFork, slot.seq, p.token, slot.pc, slot.inst, child.fetchPC)
	return true
}
