package pipeline

import (
	"fmt"

	"retstack/internal/emu"
	"retstack/internal/isa"
)

// FastForward advances the program n instructions in the paper's "fast
// mode": functional execution with no microarchitectural simulation —
// "only the caches and branch predictor are updated". The return-address
// stack is kept perfectly (there is no wrong path to corrupt it). Use it
// to reach a representative simulation window before cycle simulation;
// it must be called before the first cycle is simulated.
//
// It returns the number of instructions actually executed (the program
// may halt first).
func (s *Sim) FastForward(n uint64) (uint64, error) {
	if s.cycle != 0 || s.stats.Committed != 0 {
		return 0, fmt.Errorf("pipeline: FastForward after cycle simulation started")
	}
	if len(s.threads) > 1 {
		return 0, fmt.Errorf("pipeline: FastForward is single-thread only")
	}
	lineBytesI := uint32(s.hier.L1I.LineBytes())
	var lastLine uint32 // +1, 0 = none
	var done uint64
	root := &s.paths[0]

	// Cache-warming callbacks shared by the block fast path and the
	// per-instruction path below. Keeping both on the same closures (and
	// the same lastLine) preserves the exact per-instruction I/D access
	// interleaving into the shared L2 — warming a whole block's lines up
	// front would reorder L2 fills and change its LRU state. The body
	// interpreter calls warmI only where the line can change (block entry
	// and line starts); lastLine drops the repeats, as it does for the
	// per-instruction calls.
	warmI := func(pc uint32) {
		if line := pc/lineBytesI + 1; line != lastLine {
			s.hier.L1I.Access(pc, false)
			lastLine = line
		}
	}
	warmD := func(addr uint32, store bool) {
		s.hier.L1D.Access(addr, store)
	}

	for done < n && !s.mach.Halted {
		// Block fast path: advance block-at-a-time through the straight-line
		// body. Body instructions are provably non-control, so they train
		// nothing; only the caches see them, via the callbacks. The block's
		// terminator runs on the next iteration, below.
		if k := s.mach.StepBlockBody(n-done, lineBytesI, warmI, warmD); k > 0 {
			done += k
			s.stats.FastForwarded += k
			continue
		}

		pc := s.mach.PC

		// Warm the I-cache, one access per line.
		warmI(pc)

		// A plain branch or jump runs through the emulator's concrete
		// terminator step, as in Machine.Run. Syscalls, invalid encodings,
		// misaligned accesses, a dirtied code region and the step-at-a-time
		// reference go through Step, the only path with data accesses.
		t, ok := s.mach.StepTerminator()
		if !ok {
			in, out, err := s.mach.Step()
			if err != nil {
				return done, fmt.Errorf("pipeline: fast-forward at pc=%#x: %w", pc, err)
			}
			if out.IsLoad {
				warmD(out.Addr, false)
			}
			if out.IsStore {
				warmD(out.Addr, true)
			}
			t = emu.Transfer{Class: in.Class(), Taken: out.Taken, Target: out.Target}
		}
		done++
		s.stats.FastForwarded++

		// Train the predictors with committed outcomes.
		switch t.Class {
		case isa.ClassCondBranch:
			predicted := s.dirPred.Predict(pc)
			if s.cfg.SpecHistory {
				snap := s.hybrid.Snapshot(pc)
				s.hybrid.SpecShift(pc, t.Taken)
				s.hybrid.TrainAt(pc, snap, t.Taken)
			} else {
				s.dirPred.Update(pc, t.Taken)
			}
			// Conditional targets are decode-computed at fetch in the
			// timing model, so no BTB training here.
			s.conf.Update(pc, predicted == t.Taken)
		case isa.ClassCall, isa.ClassIndirectCall:
			if root.ras != nil {
				root.ras.Push(pc + isa.WordBytes) // the return address, as isa.Inst.ReturnAddress
			}
			if t.Class == isa.ClassIndirectCall {
				s.btb.Update(pc, t.Target)
			}
		case isa.ClassReturn:
			if root.ras != nil {
				root.ras.Pop()
			}
			s.btb.Update(pc, t.Target)
		case isa.ClassIndirect:
			s.btb.Update(pc, t.Target)
		}
	}

	// The cycle simulator picks up where the fast mode stopped. If the
	// program already exited in fast mode there is nothing left to time.
	if s.mach.Halted {
		s.threads[0].done = true
		s.done = true
	}
	root.fetchPC = s.mach.PC
	root.lastLine = 0
	return done, nil
}
