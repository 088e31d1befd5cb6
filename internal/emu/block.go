package emu

import (
	"retstack/internal/isa"
)

// Basic-block dispatch: Run and fast-forward execute through one chained
// block loop instead of re-entering the generic fetch→Exec→retire round
// trip per instruction. The plane's block table (program.Plane.BlockLenAt)
// says how many provably straight-line instructions start at the current
// PC; the loop runs them through a concrete-typed interpreter, with no
// State-interface indirection, no Outcome construction and no
// per-instruction halt or fetch checks, because a block body by
// construction contains no control transfer and no syscall. It then runs
// the block's terminator, when that is a plain branch or jump, and goes
// straight on to the next block. Anything the loop cannot prove equivalent
// — a syscall, an invalid encoding, a misaligned access, a store that
// dirties the code region, a PC outside the plane — stops it before any
// side effect, and its caller re-executes that one instruction through
// Step, so errors, counters and architectural state are bit-for-bit the
// single-step semantics.
//
// BlockHits counts the loop's dispatches through the block table: one at
// each block it enters, and one more at the instruction after a body that
// ran at least one instruction, when the budget and a clean plane leave
// it one to dispatch (the terminator, or the instruction that stopped the
// body). That is one dispatch per body and one per terminator, as in a
// loop that re-entered the table after each body.

// DisableBlocks turns off basic-block dispatch: Run degrades to the
// single-instruction Step loop and the pipeline's fetch/fast-forward block
// paths see no blocks from this machine. Like DisablePredecode it is a
// test-only reference: production always dispatches blocks, and the
// determinism tests hold it byte-identical to this step-at-a-time path.
func (m *Machine) DisableBlocks() { m.noBlocks = true }

// A Warmer is told what fast mode would have the caches and predictors
// see, in program order: RunWarm calls it for every instruction it
// executes, whether the block loop or Step ran it. It must not touch the
// machine.
type Warmer interface {
	// FetchLine is called before an instruction is executed from an
	// I-cache line other than the one the last instruction came from.
	FetchLine(pc uint32)
	// Access is called after each data access, with its address.
	Access(addr uint32, store bool)
	// Transfer is called after each control transfer retires, with its
	// PC.
	Transfer(pc uint32, t Transfer)
}

// warming is a Warmer attached to one run, with the I-cache line the last
// instruction was fetched from, which carries across the block loop and
// the Steps between its calls.
type warming struct {
	Warmer
	mask uint32 // I-cache line size - 1
	line uint32 // address of the line last fetched from; noLine at first
}

// noLine is no line's address: line addresses are multiples of the line
// size.
const noLine = 1

// fetch reports the fetch of the instruction at pc when it leaves the
// last line.
func (w *warming) fetch(pc uint32) {
	if l := pc &^ w.mask; l != w.line {
		w.line = l
		w.FetchLine(pc)
	}
}

// step is Step with the warmer told about the instruction.
func (w *warming) step(m *Machine) error {
	pc := m.PC
	w.fetch(pc)
	in, out, err := m.Step()
	if err != nil {
		return err
	}
	if out.IsLoad || out.IsStore {
		w.Access(out.Addr, out.IsStore)
	}
	if c := in.Class(); c.IsControl() {
		w.Transfer(pc, Transfer{Class: c, Taken: out.Taken, Target: out.Target})
	}
	return nil
}

// run is the one execution loop behind Run and RunWarm: the block loop,
// and a reference Step for each instruction it hands back, until budget
// instructions have retired or the machine halts. w may be nil.
func (m *Machine) run(budget uint64, w *warming) (uint64, error) {
	var n uint64
	for n < budget && !m.Halted {
		if n += m.runBlocks(budget-n, w); n == budget {
			break
		}
		var err error
		if w == nil {
			_, _, err = m.Step()
		} else {
			err = w.step(m)
		}
		if err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// runBlocks is the block loop. From m.PC it runs each basic block's body
// through the interpreter below and the block's terminator through
// transfer, chaining from block to block, until budget instructions have
// retired or it reaches an instruction Step must handle. It returns how
// many instructions retired and leaves m.PC at the next one. w, when not
// nil, sees the fetch lines, data accesses and transfers as they happen.
func (m *Machine) runBlocks(budget uint64, w *warming) uint64 {
	p := m.plane
	if m.noBlocks || p == nil || m.Halted {
		return 0
	}
	insts, classes := p.Tables()
	base := p.Base()
	regs := &m.Regs
	mem := m.Mem
	var lineMask uint32
	if w != nil {
		lineMask = w.mask
	}
	pc := m.PC
	var n uint64
	for n < budget && !mem.codeDirty {
		idx := (pc - base) >> 2
		if pc&3 != 0 || idx >= uint32(len(insts)) {
			break
		}
		bl, _ := p.BlockLenAt(idx)
		m.noteBlockEntry(idx)
		full := uint64(bl - 1)
		body := min(full, budget-n)
		var k uint64
	loop:
		for k < body {
			// The warmer sees the entry and each line start. Testing w
			// first keeps Run's warmer-free loop at one compare.
			if w != nil && (k == 0 || pc&lineMask == 0) {
				w.fetch(pc)
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
				if w != nil {
					w.Access(addr, false)
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
				if w != nil {
					w.Access(addr, false)
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
				if w != nil {
					w.Access(addr, false)
				}

			case isa.OpSW:
				addr := rs + uint32(in.Imm)
				if addr&3 != 0 {
					break loop
				}
				mem.Write32(addr, rt)
				if w != nil {
					w.Access(addr, true)
				}
				dirtied = mem.codeDirty
			case isa.OpSH:
				addr := rs + uint32(in.Imm)
				if addr&1 != 0 {
					break loop
				}
				mem.Write16(addr, uint16(rt))
				if w != nil {
					w.Access(addr, true)
				}
				dirtied = mem.codeDirty
			case isa.OpSB:
				addr := rs + uint32(in.Imm)
				mem.Write8(addr, byte(rt))
				if w != nil {
					w.Access(addr, true)
				}
				dirtied = mem.codeDirty

			default:
				// Invalid encoding (decodes to ClassALU, so it can sit inside
				// a block body): stop before side effects; Step reports the
				// error.
				break loop
			}
			m.ClassCounts[classes[idx]]++
			idx++
			pc += isa.WordBytes
			k++
			if dirtied {
				// The store just rewrote code: the plane — and every
				// descriptor over it — is stale. The store itself retired
				// normally; stop so the next instruction re-fetches from
				// memory.
				break
			}
		}
		n += k
		m.InstCount += k
		m.PredecodeHits += k // body instructions were served from the plane
		if n == budget || mem.codeDirty {
			break
		}
		if k > 0 {
			m.noteBlockEntry(idx) // the dispatch after a body (see above)
		}
		if k < full {
			break // the body stopped at an instruction Step must handle
		}
		if w != nil {
			w.fetch(pc)
		}
		t, ok := m.transfer(&insts[idx], classes[idx], pc)
		if !ok {
			break // a syscall, or a block cut by the plane's edge
		}
		n++
		if w != nil {
			w.Transfer(pc, t)
		}
		pc = m.PC
	}
	m.PC = pc
	return n
}

// Transfer is what a Warmer is told about a control transfer that
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

// transfer executes in, the instruction of class cl at pc, with concrete
// dispatch when it is one of the plain branch/jump forms, with Step's
// architectural effects and counters. It returns false, having changed
// nothing, for syscalls (which can halt or print) and anything else, for
// the caller to route through Step.
func (m *Machine) transfer(in *isa.Inst, cl isa.Class, pc uint32) (Transfer, bool) {
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
	t := Transfer{Class: cl, Taken: taken}
	if taken {
		t.Target = npc
	}
	m.PredecodeHits++
	m.NoteRetiredClass(cl)
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

// noteBlockEntry counts a block dispatch at plane slot idx, and the first
// dispatch of each entry point as a descriptor build. The real lazy build happens at most once per block on
// the shared plane, so counting it directly would make BlockBuilds depend
// on which machine touched a shared image first; first entries per machine
// are deterministic and equal the builds a private table would perform.
func (m *Machine) noteBlockEntry(idx uint32) {
	m.BlockHits++
	w, b := idx>>6, uint64(1)<<(idx&63)
	if m.blockSeen[w]&b == 0 {
		m.blockSeen[w] |= b
		m.BlockBuilds++
	}
}
