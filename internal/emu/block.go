package emu

import (
	"retstack/internal/isa"
)

// Basic-block dispatch: Run executes whole block bodies through a
// concrete-typed interpreter instead of re-entering the generic
// fetch→Exec→retire round trip per instruction. The plane's block table
// (program.Plane.BlockLenAt) says how many provably straight-line
// instructions start at the current PC; those can skip the State-interface
// indirection, the Outcome construction, and the per-instruction halt and
// fetch checks, because a block body by construction contains no control
// transfer and no syscall. Anything the fast path cannot prove equivalent —
// invalid encodings, misaligned accesses, a store that dirties the code
// region, a PC outside the plane — stops the batch and re-executes through
// Step, so errors, counters, and architectural state are bit-for-bit the
// single-step semantics.

// DisableBlocks turns off basic-block dispatch: Run degrades to the
// single-instruction Step loop and the pipeline's fetch/fast-forward block
// paths see no blocks from this machine. Like DisablePredecode it is a
// test-only reference: production always dispatches blocks, and the
// determinism tests hold it byte-identical to this step-at-a-time path.
func (m *Machine) DisableBlocks() { m.noBlocks = true }

// runBlocks is Run's block-dispatch loop: execute the straight-line body of
// the current block in one batch, then its terminator (fast for plain
// branches and jumps, via Step for syscalls and anything unusual).
func (m *Machine) runBlocks(maxInsts uint64) (uint64, error) {
	var n uint64
	for !m.Halted {
		if maxInsts > 0 && n >= maxInsts {
			break
		}
		budget := ^uint64(0)
		if maxInsts > 0 {
			budget = maxInsts - n
		}
		k, full := m.stepBlockBody(budget, 0, nil, nil)
		n += k
		if maxInsts > 0 && n >= maxInsts {
			break
		}
		if full {
			if _, ok := m.StepTerminator(); ok {
				n++
				continue
			}
		}
		// Whatever stopped the fast path — the block's terminator being a
		// syscall, an invalid encoding, a misaligned access, a store that
		// dirtied the code region, or a PC outside the plane — one reference
		// Step covers it with identical semantics and identical errors.
		if _, _, err := m.Step(); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// StepBlockBody executes up to budget straight-line instructions of the
// basic block at the current PC with the fast concrete-typed interpreter,
// returning how many retired (0 when the block path cannot serve the PC —
// blocks disabled, plane absent or dirtied, PC at a terminator, or an
// instruction Step must handle). ifetch runs before the first instruction
// and before each later one that starts a line of lineBytes (a power of
// two), so once per I-cache line the run touches; access runs after each
// data access (either may be nil). Pipeline fast-forward uses them to warm
// the caches in exactly the I/D order the per-instruction reference loop
// produces.
func (m *Machine) StepBlockBody(budget uint64, lineBytes uint32, ifetch func(pc uint32), access func(addr uint32, store bool)) uint64 {
	k, _ := m.stepBlockBody(budget, lineBytes, ifetch, access)
	return k
}

// stepBlockBody is the block-body interpreter. full reports that the body
// ran to completion and the block's terminator is now at m.PC; the caller
// may then try StepTerminator. It mirrors Exec's semantics exactly for the
// non-control subset and stops — before any side effect — at anything it
// cannot mirror, leaving that instruction for Step.
func (m *Machine) stepBlockBody(budget uint64, lineBytes uint32, ifetch func(uint32), access func(uint32, bool)) (uint64, bool) {
	p := m.plane
	if m.noBlocks || p == nil || m.Mem.codeDirty || budget == 0 {
		return 0, false
	}
	pc := m.PC
	idx := (pc - p.Base()) >> 2
	insts, classes := p.Tables()
	if pc&3 != 0 || idx >= uint32(len(insts)) {
		return 0, false
	}
	bl, _ := p.BlockLenAt(idx)
	m.noteBlockEntry(idx)
	m.BlockHits++
	fullBody := uint64(bl - 1)
	body := fullBody
	if body > budget {
		body = budget
	}
	regs := &m.Regs
	mem := m.Mem
	lineMask := lineBytes - 1
	var done uint64
loop:
	for done < body {
		// The fetch hook sees the entry and each line start. Testing
		// ifetch first keeps Run's hook-free loop at one compare.
		if ifetch != nil && (done == 0 || pc&lineMask == 0) {
			ifetch(pc)
		}
		in := insts[idx]
		// Mirror ReadReg: $zero always reads 0 even if Regs[0] was poked.
		var rs, rt uint32
		if in.Rs != 0 {
			rs = regs[in.Rs]
		}
		if in.Rt != 0 {
			rt = regs[in.Rt]
		}
		dirtied := false
		switch in.Op {
		case isa.OpADD:
			if in.Rd != 0 {
				regs[in.Rd] = rs + rt
			}
		case isa.OpSUB:
			if in.Rd != 0 {
				regs[in.Rd] = rs - rt
			}
		case isa.OpAND:
			if in.Rd != 0 {
				regs[in.Rd] = rs & rt
			}
		case isa.OpOR:
			if in.Rd != 0 {
				regs[in.Rd] = rs | rt
			}
		case isa.OpXOR:
			if in.Rd != 0 {
				regs[in.Rd] = rs ^ rt
			}
		case isa.OpNOR:
			if in.Rd != 0 {
				regs[in.Rd] = ^(rs | rt)
			}
		case isa.OpSLT:
			if in.Rd != 0 {
				regs[in.Rd] = boolTo32(int32(rs) < int32(rt))
			}
		case isa.OpSLTU:
			if in.Rd != 0 {
				regs[in.Rd] = boolTo32(rs < rt)
			}
		case isa.OpSLL:
			if in.Rd != 0 {
				regs[in.Rd] = rt << in.Shamt
			}
		case isa.OpSRL:
			if in.Rd != 0 {
				regs[in.Rd] = rt >> in.Shamt
			}
		case isa.OpSRA:
			if in.Rd != 0 {
				regs[in.Rd] = uint32(int32(rt) >> in.Shamt)
			}
		case isa.OpSLLV:
			if in.Rd != 0 {
				regs[in.Rd] = rt << (rs & 31)
			}
		case isa.OpSRLV:
			if in.Rd != 0 {
				regs[in.Rd] = rt >> (rs & 31)
			}
		case isa.OpSRAV:
			if in.Rd != 0 {
				regs[in.Rd] = uint32(int32(rt) >> (rs & 31))
			}
		case isa.OpMUL:
			if in.Rd != 0 {
				regs[in.Rd] = rs * rt
			}
		case isa.OpDIV:
			// As in Exec: division by zero yields zero, overflow wraps.
			if in.Rd != 0 {
				if rt == 0 {
					regs[in.Rd] = 0
				} else {
					regs[in.Rd] = uint32(int32(rs) / int32(rt))
				}
			}
		case isa.OpREM:
			if in.Rd != 0 {
				if rt == 0 {
					regs[in.Rd] = 0
				} else {
					regs[in.Rd] = uint32(int32(rs) % int32(rt))
				}
			}

		case isa.OpADDI:
			if in.Rt != 0 {
				regs[in.Rt] = rs + uint32(in.Imm)
			}
		case isa.OpANDI:
			if in.Rt != 0 {
				regs[in.Rt] = rs & uint32(in.Imm)
			}
		case isa.OpORI:
			if in.Rt != 0 {
				regs[in.Rt] = rs | uint32(in.Imm)
			}
		case isa.OpXORI:
			if in.Rt != 0 {
				regs[in.Rt] = rs ^ uint32(in.Imm)
			}
		case isa.OpSLTI:
			if in.Rt != 0 {
				regs[in.Rt] = boolTo32(int32(rs) < in.Imm)
			}
		case isa.OpSLTIU:
			if in.Rt != 0 {
				regs[in.Rt] = boolTo32(rs < uint32(in.Imm))
			}
		case isa.OpLUI:
			if in.Rt != 0 {
				regs[in.Rt] = uint32(in.Imm) << 16
			}

		case isa.OpLW:
			addr := rs + uint32(in.Imm)
			if addr&3 != 0 {
				break loop
			}
			v := mem.Read32(addr)
			if in.Rt != 0 {
				regs[in.Rt] = v
			}
			if access != nil {
				access(addr, false)
			}
		case isa.OpLH, isa.OpLHU:
			addr := rs + uint32(in.Imm)
			if addr&1 != 0 {
				break loop
			}
			h := mem.Read16(addr)
			v := uint32(h)
			if in.Op == isa.OpLH {
				v = uint32(int32(int16(h)))
			}
			if in.Rt != 0 {
				regs[in.Rt] = v
			}
			if access != nil {
				access(addr, false)
			}
		case isa.OpLB, isa.OpLBU:
			addr := rs + uint32(in.Imm)
			b := mem.Read8(addr)
			v := uint32(b)
			if in.Op == isa.OpLB {
				v = uint32(int32(int8(b)))
			}
			if in.Rt != 0 {
				regs[in.Rt] = v
			}
			if access != nil {
				access(addr, false)
			}

		case isa.OpSW:
			addr := rs + uint32(in.Imm)
			if addr&3 != 0 {
				break loop
			}
			mem.Write32(addr, rt)
			if access != nil {
				access(addr, true)
			}
			dirtied = mem.codeDirty
		case isa.OpSH:
			addr := rs + uint32(in.Imm)
			if addr&1 != 0 {
				break loop
			}
			mem.Write16(addr, uint16(rt))
			if access != nil {
				access(addr, true)
			}
			dirtied = mem.codeDirty
		case isa.OpSB:
			addr := rs + uint32(in.Imm)
			mem.Write8(addr, byte(rt))
			if access != nil {
				access(addr, true)
			}
			dirtied = mem.codeDirty

		default:
			// Invalid encoding (decodes to ClassALU, so it can sit inside a
			// block body): stop before side effects; Step reports the error.
			break loop
		}
		m.ClassCounts[classes[idx]]++
		idx++
		pc += isa.WordBytes
		done++
		if dirtied {
			// The store just rewrote code: the plane — and every descriptor
			// over it — is stale. The store itself retired normally; stop so
			// the next instruction re-fetches from memory.
			break
		}
	}
	m.InstCount += done
	m.PredecodeHits += done // body instructions were served from the plane
	m.PC = pc
	return done, done == fullBody
}

// Transfer is what StepTerminator reports about the control transfer it
// retired: what fast-forward needs to train the direction predictor, the
// BTB and the return stack, without building an Outcome. It leaves out
// the instruction, which training would read only for a call's return
// address, always the next instruction's. Three fields come back in
// registers; with an isa.Inst inside, the result is copied through memory
// on every terminator.
type Transfer struct {
	Class  isa.Class
	Taken  bool   // left the fall-through path
	Target uint32 // resolved destination when Taken, as in Outcome
}

// StepTerminator executes the control transfer at m.PC with concrete
// dispatch when it is one of the plain branch/jump forms, with Step's
// architectural effects and counters. It returns false, having changed
// nothing, for syscalls (which can halt or print) and anything unusual —
// a non-control instruction, blocks disabled, the plane absent or dirtied,
// a PC outside it, a halted machine — for the caller to route through
// Step. Run and pipeline fast-forward both execute block terminators
// through it.
func (m *Machine) StepTerminator() (Transfer, bool) {
	p := m.plane
	if m.noBlocks || p == nil || m.Mem.codeDirty || m.Halted {
		return Transfer{}, false
	}
	pc := m.PC
	idx := (pc - p.Base()) >> 2
	insts, classes := p.Tables()
	if pc&3 != 0 || idx >= uint32(len(insts)) {
		return Transfer{}, false
	}
	in := &insts[idx] // read in place: copying it costs Run measurably
	var rs uint32
	if in.Rs != 0 {
		rs = m.Regs[in.Rs]
	}
	var taken bool
	npc := pc + isa.WordBytes
	switch in.Op {
	case isa.OpBEQ:
		var rt uint32
		if in.Rt != 0 {
			rt = m.Regs[in.Rt]
		}
		if rs == rt {
			taken, npc = true, in.DirectTarget(pc)
		}
	case isa.OpBNE:
		var rt uint32
		if in.Rt != 0 {
			rt = m.Regs[in.Rt]
		}
		if rs != rt {
			taken, npc = true, in.DirectTarget(pc)
		}
	case isa.OpBLEZ:
		if int32(rs) <= 0 {
			taken, npc = true, in.DirectTarget(pc)
		}
	case isa.OpBGTZ:
		if int32(rs) > 0 {
			taken, npc = true, in.DirectTarget(pc)
		}
	case isa.OpBLTZ:
		if int32(rs) < 0 {
			taken, npc = true, in.DirectTarget(pc)
		}
	case isa.OpBGEZ:
		if int32(rs) >= 0 {
			taken, npc = true, in.DirectTarget(pc)
		}
	case isa.OpJ:
		taken, npc = true, in.DirectTarget(pc)
	case isa.OpJAL:
		m.Regs[isa.RA] = in.ReturnAddress(pc)
		taken, npc = true, in.DirectTarget(pc)
	case isa.OpJR:
		taken, npc = true, rs
	case isa.OpJALR:
		// rs was read above, so jalr rd, rd links correctly: the old value
		// is the target, mirroring Exec's read-before-link order.
		taken, npc = true, rs
		if in.Rd != 0 {
			m.Regs[in.Rd] = in.ReturnAddress(pc)
		}
	default:
		return Transfer{}, false
	}
	t := Transfer{Class: classes[idx], Taken: taken}
	if taken {
		t.Target = npc
	}
	m.PredecodeHits++
	m.NoteRetiredClass(t.Class)
	m.PC = npc
	return t, true
}

// FetchBlockBody returns the number of straight-line instructions (the
// basic block's body, excluding its terminator) starting at pc, served from
// the plane's block table — 0 when block dispatch cannot serve pc (blocks
// disabled, plane absent or dirtied by a code store, pc outside the plane
// or misaligned, or pc already at a terminator). The pipeline fetch stage
// uses the count to pull a whole block into the fetch queue in one call.
func (m *Machine) FetchBlockBody(pc uint32) int {
	p := m.plane
	if m.noBlocks || p == nil || m.Mem.codeDirty {
		return 0
	}
	idx := (pc - p.Base()) >> 2
	if pc&3 != 0 || idx >= uint32(p.Len()) {
		return 0
	}
	n, _ := p.BlockLenAt(idx)
	if n > 1 {
		m.noteBlockEntry(idx)
		m.BlockHits++
	}
	return int(n - 1)
}

// FetchBlockInsts returns the predecoded instructions and classes of the n
// slots starting at pc and counts them as n predecode hits: FetchInstClass
// for a run of instructions at once. pc must be an address FetchBlockBody
// has just served, and n at most the body it reported, so the whole run
// lies in a clean plane. The slices alias the plane and are read-only.
func (m *Machine) FetchBlockInsts(pc uint32, n int) ([]isa.Inst, []isa.Class) {
	insts, classes := m.plane.Tables()
	i := int((pc - m.plane.Base()) >> 2)
	m.PredecodeHits += uint64(n)
	return insts[i : i+n : i+n], classes[i : i+n : i+n]
}

// noteBlockEntry counts the first dispatch of each block entry point as a
// descriptor build. The real lazy build happens at most once per block on
// the shared plane, so counting it directly would make BlockBuilds depend
// on which machine touched a shared image first; first entries per machine
// are deterministic and equal the builds a private table would perform.
func (m *Machine) noteBlockEntry(idx uint32) {
	w, b := idx>>6, uint64(1)<<(idx&63)
	if m.blockSeen[w]&b == 0 {
		m.blockSeen[w] |= b
		m.BlockBuilds++
	}
}
