package emu

import (
	"errors"
	"fmt"

	"retstack/internal/isa"
)

// Execution errors. The architectural machine treats them as fatal; the
// pipeline tolerates them on wrong paths (a wrong path may fetch data as
// code or compute garbage addresses) by turning the instruction into an
// effect-free bubble.
var (
	ErrInvalidInst = errors.New("emu: invalid instruction")
	ErrMisaligned  = errors.New("emu: misaligned memory access")
	ErrBadSyscall  = errors.New("emu: unknown syscall code")
)

// SyscallCode enumerates the minimal OS interface.
type SyscallCode uint8

const (
	SysNone    SyscallCode = 0
	SysExit    SyscallCode = 1 // a0 = exit code
	SysPutInt  SyscallCode = 2 // a0 = integer printed in decimal
	SysPutChar SyscallCode = 3 // a0 = byte written to output
)

// Outcome describes everything the pipeline needs to know about one
// executed instruction: the next PC, control-flow resolution, the register
// result, and the memory access (if any).
type Outcome struct {
	NextPC uint32

	Control bool   // the instruction is a control transfer
	Taken   bool   // control transfer left the fall-through path
	Target  uint32 // resolved destination when Taken

	Dest  int // architectural destination register, -1 if none
	Value uint32

	IsLoad   bool
	IsStore  bool
	Addr     uint32
	Size     uint8 // access size in bytes (1, 2, 4)
	StoreVal uint32

	Syscall    SyscallCode
	SyscallArg uint32
}

// Exec executes one instruction located at pc against s and returns its
// outcome. It performs register and memory side effects on s but does NOT
// perform syscall side effects (printing, halting); those are reported in
// the Outcome so the caller can apply them only on the architectural path.
func Exec(s State, pc uint32, in isa.Inst) (Outcome, error) {
	out := Outcome{NextPC: pc + isa.WordBytes, Dest: -1}
	rs := s.ReadReg(int(in.Rs))
	rt := s.ReadReg(int(in.Rt))

	setDest := func(r int, v uint32) {
		if r != isa.Zero {
			s.WriteReg(r, v)
			out.Dest = r
			out.Value = v
		}
	}
	takeBranch := func(cond bool) {
		out.Control = true
		if cond {
			out.Taken = true
			out.Target = in.DirectTarget(pc)
			out.NextPC = out.Target
		}
	}

	switch in.Op {
	case isa.OpADD:
		setDest(int(in.Rd), rs+rt)
	case isa.OpSUB:
		setDest(int(in.Rd), rs-rt)
	case isa.OpAND:
		setDest(int(in.Rd), rs&rt)
	case isa.OpOR:
		setDest(int(in.Rd), rs|rt)
	case isa.OpXOR:
		setDest(int(in.Rd), rs^rt)
	case isa.OpNOR:
		setDest(int(in.Rd), ^(rs | rt))
	case isa.OpSLT:
		setDest(int(in.Rd), boolTo32(int32(rs) < int32(rt)))
	case isa.OpSLTU:
		setDest(int(in.Rd), boolTo32(rs < rt))
	case isa.OpSLL:
		setDest(int(in.Rd), rt<<in.Shamt)
	case isa.OpSRL:
		setDest(int(in.Rd), rt>>in.Shamt)
	case isa.OpSRA:
		setDest(int(in.Rd), uint32(int32(rt)>>in.Shamt))
	case isa.OpSLLV:
		setDest(int(in.Rd), rt<<(rs&31))
	case isa.OpSRLV:
		setDest(int(in.Rd), rt>>(rs&31))
	case isa.OpSRAV:
		setDest(int(in.Rd), uint32(int32(rt)>>(rs&31)))
	case isa.OpMUL:
		setDest(int(in.Rd), rs*rt)
	case isa.OpDIV:
		// Division by zero yields zero (defined so wrong paths can never
		// fault); signed overflow (MinInt32 / -1) wraps.
		if rt == 0 {
			setDest(int(in.Rd), 0)
		} else {
			setDest(int(in.Rd), uint32(int32(rs)/int32(rt)))
		}
	case isa.OpREM:
		if rt == 0 {
			setDest(int(in.Rd), 0)
		} else {
			setDest(int(in.Rd), uint32(int32(rs)%int32(rt)))
		}

	case isa.OpADDI:
		setDest(int(in.Rt), rs+uint32(in.Imm))
	case isa.OpANDI:
		setDest(int(in.Rt), rs&uint32(in.Imm))
	case isa.OpORI:
		setDest(int(in.Rt), rs|uint32(in.Imm))
	case isa.OpXORI:
		setDest(int(in.Rt), rs^uint32(in.Imm))
	case isa.OpSLTI:
		setDest(int(in.Rt), boolTo32(int32(rs) < in.Imm))
	case isa.OpSLTIU:
		setDest(int(in.Rt), boolTo32(rs < uint32(in.Imm)))
	case isa.OpLUI:
		setDest(int(in.Rt), uint32(in.Imm)<<16)

	case isa.OpLW, isa.OpLH, isa.OpLHU, isa.OpLB, isa.OpLBU:
		addr := rs + uint32(in.Imm)
		out.IsLoad, out.Addr = true, addr
		var v uint32
		switch in.Op {
		case isa.OpLW:
			if addr&3 != 0 {
				return out, fmt.Errorf("%w: lw @%#x", ErrMisaligned, addr)
			}
			out.Size = 4
			v = s.ReadMem32(addr)
		case isa.OpLH, isa.OpLHU:
			if addr&1 != 0 {
				return out, fmt.Errorf("%w: lh @%#x", ErrMisaligned, addr)
			}
			out.Size = 2
			h := s.ReadMem16(addr)
			if in.Op == isa.OpLH {
				v = uint32(int32(int16(h)))
			} else {
				v = uint32(h)
			}
		case isa.OpLB, isa.OpLBU:
			out.Size = 1
			b := s.ReadMem8(addr)
			if in.Op == isa.OpLB {
				v = uint32(int32(int8(b)))
			} else {
				v = uint32(b)
			}
		}
		setDest(int(in.Rt), v)

	case isa.OpSW, isa.OpSH, isa.OpSB:
		addr := rs + uint32(in.Imm)
		out.IsStore, out.Addr, out.StoreVal = true, addr, rt
		switch in.Op {
		case isa.OpSW:
			if addr&3 != 0 {
				return out, fmt.Errorf("%w: sw @%#x", ErrMisaligned, addr)
			}
			out.Size = 4
			s.WriteMem32(addr, rt)
		case isa.OpSH:
			if addr&1 != 0 {
				return out, fmt.Errorf("%w: sh @%#x", ErrMisaligned, addr)
			}
			out.Size = 2
			s.WriteMem16(addr, uint16(rt))
		case isa.OpSB:
			out.Size = 1
			s.WriteMem8(addr, byte(rt))
		}

	case isa.OpBEQ:
		takeBranch(rs == rt)
	case isa.OpBNE:
		takeBranch(rs != rt)
	case isa.OpBLEZ:
		takeBranch(int32(rs) <= 0)
	case isa.OpBGTZ:
		takeBranch(int32(rs) > 0)
	case isa.OpBLTZ:
		takeBranch(int32(rs) < 0)
	case isa.OpBGEZ:
		takeBranch(int32(rs) >= 0)

	case isa.OpJ:
		out.Control, out.Taken = true, true
		out.Target = in.DirectTarget(pc)
		out.NextPC = out.Target
	case isa.OpJAL:
		out.Control, out.Taken = true, true
		out.Target = in.DirectTarget(pc)
		out.NextPC = out.Target
		setDest(isa.RA, in.ReturnAddress(pc))
	case isa.OpJR:
		out.Control, out.Taken = true, true
		out.Target = rs
		out.NextPC = rs
	case isa.OpJALR:
		out.Control, out.Taken = true, true
		out.Target = rs
		out.NextPC = rs
		setDest(int(in.Rd), in.ReturnAddress(pc))

	case isa.OpSYSCALL:
		code := SyscallCode(s.ReadReg(isa.V0))
		arg := s.ReadReg(isa.A0)
		switch code {
		case SysExit, SysPutInt, SysPutChar:
			out.Syscall, out.SyscallArg = code, arg
		default:
			return out, fmt.Errorf("%w: v0=%d", ErrBadSyscall, code)
		}

	default:
		return out, fmt.Errorf("%w: %#08x", ErrInvalidInst, in.Raw)
	}
	return out, nil
}

func boolTo32(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// Result is the part of an Outcome the pipeline's dispatch stage reads.
// With its flags in a struct of their own it has four fields, so the
// compiler keeps it in registers instead of copying it through the stack.
type Result struct {
	NextPC     uint32
	Addr       uint32 // the load's or the store's address
	SyscallArg uint32
	Flags
}

// Flags says what an executed instruction did besides compute.
type Flags struct {
	Taken   bool // left the fall-through path
	Load    bool
	Store   bool
	Syscall SyscallCode
}

// Execute is Exec for the pipeline's dispatch stage, over concrete types:
// it executes in at pc against m's architectural state or, when o is not
// nil, against o, an overlay over m, with Exec's semantics and side
// effects. Its errors are Exec's with the same text on m; on an overlay
// they are the bare sentinels, since a wrong path's fault only turns the
// instruction into a bubble and must not allocate. FuzzExecuteMatchesExec
// holds the two executors to each other.
func Execute(m *Machine, o *Overlay, pc uint32, in *isa.Inst) (Result, error) {
	r := Result{NextPC: pc + isa.WordBytes}
	rs, rt := readReg(m, o, in.Rs), readReg(m, o, in.Rt)
	d, v := in.Rd, uint32(0) // the destination and its value
	switch in.Op {
	case isa.OpADD:
		v = rs + rt
	case isa.OpSUB:
		v = rs - rt
	case isa.OpAND:
		v = rs & rt
	case isa.OpOR:
		v = rs | rt
	case isa.OpXOR:
		v = rs ^ rt
	case isa.OpNOR:
		v = ^(rs | rt)
	case isa.OpSLT:
		v = boolTo32(int32(rs) < int32(rt))
	case isa.OpSLTU:
		v = boolTo32(rs < rt)
	case isa.OpSLL:
		v = rt << in.Shamt
	case isa.OpSRL:
		v = rt >> in.Shamt
	case isa.OpSRA:
		v = uint32(int32(rt) >> in.Shamt)
	case isa.OpSLLV:
		v = rt << (rs & 31)
	case isa.OpSRLV:
		v = rt >> (rs & 31)
	case isa.OpSRAV:
		v = uint32(int32(rt) >> (rs & 31))
	case isa.OpMUL:
		v = rs * rt
	case isa.OpDIV:
		if rt != 0 {
			v = uint32(int32(rs) / int32(rt))
		}
	case isa.OpREM:
		if rt != 0 {
			v = uint32(int32(rs) % int32(rt))
		}

	case isa.OpADDI:
		d, v = in.Rt, rs+uint32(in.Imm)
	case isa.OpANDI:
		d, v = in.Rt, rs&uint32(in.Imm)
	case isa.OpORI:
		d, v = in.Rt, rs|uint32(in.Imm)
	case isa.OpXORI:
		d, v = in.Rt, rs^uint32(in.Imm)
	case isa.OpSLTI:
		d, v = in.Rt, boolTo32(int32(rs) < in.Imm)
	case isa.OpSLTIU:
		d, v = in.Rt, boolTo32(rs < uint32(in.Imm))
	case isa.OpLUI:
		d, v = in.Rt, uint32(in.Imm)<<16

	case isa.OpLW, isa.OpLH, isa.OpLHU, isa.OpLB, isa.OpLBU:
		r.Load, r.Addr, d = true, rs+uint32(in.Imm), in.Rt
		if err := misaligned(o, in.Op, r.Addr); err != nil {
			return r, err
		}
		v = load(m, o, in.Op, r.Addr)
	case isa.OpSW, isa.OpSH, isa.OpSB:
		r.Store, r.Addr = true, rs+uint32(in.Imm)
		if err := misaligned(o, in.Op, r.Addr); err != nil {
			return r, err
		}
		store(m, o, in.Op, r.Addr, rt)
		return r, nil

	case isa.OpBEQ:
		return branch(r, in, pc, rs == rt), nil
	case isa.OpBNE:
		return branch(r, in, pc, rs != rt), nil
	case isa.OpBLEZ:
		return branch(r, in, pc, int32(rs) <= 0), nil
	case isa.OpBGTZ:
		return branch(r, in, pc, int32(rs) > 0), nil
	case isa.OpBLTZ:
		return branch(r, in, pc, int32(rs) < 0), nil
	case isa.OpBGEZ:
		return branch(r, in, pc, int32(rs) >= 0), nil

	case isa.OpJ:
		return branch(r, in, pc, true), nil
	case isa.OpJAL:
		r = branch(r, in, pc, true)
		d, v = isa.RA, in.ReturnAddress(pc)
	case isa.OpJR:
		r.Taken, r.NextPC = true, rs
		return r, nil
	case isa.OpJALR:
		// rs was read above, so jalr rd, rd jumps to the old value.
		r.Taken, r.NextPC = true, rs
		v = in.ReturnAddress(pc)

	case isa.OpSYSCALL:
		code := SyscallCode(readReg(m, o, isa.V0))
		switch code {
		case SysExit, SysPutInt, SysPutChar:
			r.Syscall, r.SyscallArg = code, readReg(m, o, isa.A0)
			return r, nil
		}
		return r, fault(o, ErrBadSyscall, "%w: v0=%d", uint32(code))

	default:
		return r, fault(o, ErrInvalidInst, "%w: %#08x", in.Raw)
	}
	if o != nil {
		o.WriteReg(int(d), v)
	} else {
		m.WriteReg(int(d), v)
	}
	return r, nil
}

// branch resolves a direct transfer at pc, taken or not.
func branch(r Result, in *isa.Inst, pc uint32, taken bool) Result {
	if taken {
		r.Taken, r.NextPC = true, in.DirectTarget(pc)
	}
	return r
}

// fault is err with Exec's detail on the machine, and bare on an overlay.
func fault(o *Overlay, err error, format string, arg uint32) error {
	if o != nil {
		return err
	}
	return fmt.Errorf(format, err, arg)
}

// misaligned is the fault of access op at a misaligned addr, or nil.
func misaligned(o *Overlay, op isa.Op, addr uint32) error {
	switch {
	case op == isa.OpLW && addr&3 != 0:
		return fault(o, ErrMisaligned, "%w: lw @%#x", addr)
	case (op == isa.OpLH || op == isa.OpLHU) && addr&1 != 0:
		return fault(o, ErrMisaligned, "%w: lh @%#x", addr)
	case op == isa.OpSW && addr&3 != 0:
		return fault(o, ErrMisaligned, "%w: sw @%#x", addr)
	case op == isa.OpSH && addr&1 != 0:
		return fault(o, ErrMisaligned, "%w: sh @%#x", addr)
	}
	return nil
}

// The access helpers read and write o when it is not nil, and m otherwise.
// Halfwords go a byte at a time, as Overlay and Memory do them.

func readReg(m *Machine, o *Overlay, r uint8) uint32 {
	if o != nil {
		return o.ReadReg(int(r))
	}
	return m.ReadReg(int(r))
}

func readMem8(m *Machine, o *Overlay, addr uint32) uint32 {
	if o != nil {
		return uint32(o.ReadMem8(addr))
	}
	return uint32(m.Mem.Read8(addr))
}

// load returns what load op reads at addr, extended to a word.
func load(m *Machine, o *Overlay, op isa.Op, addr uint32) uint32 {
	switch op {
	case isa.OpLW:
		if o != nil {
			return o.ReadMem32(addr)
		}
		return m.Mem.Read32(addr)
	case isa.OpLH:
		return uint32(int32(int16(readMem8(m, o, addr) | readMem8(m, o, addr+1)<<8)))
	case isa.OpLHU:
		return readMem8(m, o, addr) | readMem8(m, o, addr+1)<<8
	case isa.OpLB:
		return uint32(int32(int8(readMem8(m, o, addr))))
	}
	return readMem8(m, o, addr)
}

// store performs store op of v at addr.
func store(m *Machine, o *Overlay, op isa.Op, addr, v uint32) {
	switch {
	case op == isa.OpSW && o != nil:
		o.WriteMem32(addr, v)
	case op == isa.OpSW:
		m.Mem.Write32(addr, v)
	case op == isa.OpSH:
		store(m, o, isa.OpSB, addr, v)
		store(m, o, isa.OpSB, addr+1, v>>8)
	case o != nil:
		o.WriteMem8(addr, byte(v))
	default:
		m.Mem.Write8(addr, byte(v))
	}
}
