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
	done, err := s.mach.RunWarm(n, (*fastMode)(s), uint32(s.hier.L1I.LineBytes()))
	s.stats.FastForwarded += done
	if err != nil {
		return done, fmt.Errorf("pipeline: fast-forward at pc=%#x: %w", s.mach.PC, err)
	}

	// The cycle simulator picks up where the fast mode stopped. If the
	// program already exited in fast mode there is nothing left to time.
	if s.mach.Halted {
		s.threads[0].done = true
		s.done = true
	}
	root := &s.paths[0]
	root.fetchPC = s.mach.PC
	root.lastLine = 0
	return done, nil
}

// fastMode is a Sim as the emulator's fast-mode Warmer. The emulator
// calls it in program order, so the caches see the per-instruction I/D
// access interleaving into the shared L2 — warming a whole block's lines
// up front would reorder L2 fills and change its LRU state — and the
// predictors train on committed outcomes.
type fastMode Sim

// FetchLine warms the I-cache, once per line the fetch stream enters.
func (f *fastMode) FetchLine(pc uint32) { f.hier.L1I.Access(pc, false) }

// Access warms the D-cache.
func (f *fastMode) Access(addr uint32, store bool) { f.hier.L1D.Access(addr, store) }

// Transfer trains the predictors with a committed control transfer.
func (f *fastMode) Transfer(pc uint32, t emu.Transfer) {
	switch t.Class {
	case isa.ClassCondBranch:
		var predicted bool
		switch {
		case f.cfg.SpecHistory:
			predicted = f.dirPred.Predict(pc)
			snap := f.hybrid.Snapshot(pc)
			f.hybrid.SpecShift(pc, t.Taken)
			f.hybrid.TrainAt(pc, snap, t.Taken)
		case f.hybrid != nil:
			predicted = f.hybrid.Train(pc, t.Taken)
		default:
			predicted = f.dirPred.Predict(pc)
			f.dirPred.Update(pc, t.Taken)
		}
		// Conditional targets are decode-computed at fetch in the timing
		// model, so no BTB training here.
		f.conf.Update(pc, predicted == t.Taken)
	case isa.ClassCall, isa.ClassIndirectCall:
		if ras := f.paths[0].ras; ras != nil {
			ras.Push(pc + isa.WordBytes) // the return address, as isa.Inst.ReturnAddress
		}
		if t.Class == isa.ClassIndirectCall {
			f.btb.Update(pc, t.Target)
		}
	case isa.ClassReturn:
		if ras := f.paths[0].ras; ras != nil {
			ras.Pop()
		}
		f.btb.Update(pc, t.Target)
	case isa.ClassIndirect:
		f.btb.Update(pc, t.Target)
	}
}
