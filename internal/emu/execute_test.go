package emu

import (
	"encoding/binary"
	"errors"
	"testing"

	"retstack/internal/isa"
)

// execFixture is the state one FuzzExecuteMatchesExec input describes: a
// register file, memory words around the instruction's access, and the
// speculative registers and bytes of an overlay over that state.
type execFixture struct {
	regs    [isa.NumRegs]uint32
	words   map[uint32]uint32
	ovRegs  map[int]uint32
	ovBytes []ovByte
}

type ovByte struct {
	addr uint32
	b    byte
}

// fuzzStream hands out an input's bytes, and a default once they run out.
type fuzzStream []byte

func (s *fuzzStream) word(def uint32) uint32 {
	if len(*s) < 4 {
		return def
	}
	v := binary.LittleEndian.Uint32(*s)
	*s = (*s)[4:]
	return v
}

func (s *fuzzStream) byte(def byte) byte {
	if len(*s) == 0 {
		return def
	}
	v := (*s)[0]
	*s = (*s)[1:]
	return v
}

// newExecFixture reads a fixture for in from data. Memory words and dirty
// overlay words sit around the address in's base register and offset
// name, so loads and stores meet seeded, partly overlaid memory; the
// defaults have their high bits set, so sign extension shows.
func newExecFixture(in isa.Inst, data []byte) *execFixture {
	s := fuzzStream(data)
	fx := &execFixture{words: map[uint32]uint32{}, ovRegs: map[int]uint32{}}
	for r := range fx.regs {
		fx.regs[r] = s.word(uint32(r) * 0x9E3779B9)
	}
	near := (fx.regs[in.Rs] + uint32(in.Imm)) &^ 3
	if in.Rs == isa.Zero {
		near = uint32(in.Imm) &^ 3
	}
	for k := uint32(0); k < 4; k++ {
		fx.words[near-4+4*k] = s.word(0x8899AABB ^ k*0x01030507)
	}
	dirty := s.word(0x0000F0F0)
	for r := 1; r < isa.NumRegs; r++ {
		if dirty&(1<<r) != 0 {
			fx.ovRegs[r] = s.word(uint32(r) * 0x80402011)
		}
	}
	// Up to 20 dirty words, partly masked, so the overlay spills past its
	// inline slots.
	for k, n := uint32(0), uint32(s.byte(3))%20; k < n; k++ {
		mask, v := s.byte(0x5), s.word(0xC0FFEE00+k)
		for lane := uint32(0); lane < 4; lane++ {
			if mask&(1<<lane) != 0 {
				fx.ovBytes = append(fx.ovBytes, ovByte{near - 8 + 4*k + lane, byte(v >> (8 * lane))})
			}
		}
	}
	return fx
}

// machine builds the fixture's architectural state.
func (fx *execFixture) machine() *Machine {
	m := NewMachine()
	m.Regs = fx.regs
	for a, v := range fx.words {
		m.Mem.Write32(a, v)
	}
	return m
}

// overlay builds the fixture's overlay over a machine of its own.
func (fx *execFixture) overlay() (*Machine, *Overlay) {
	m := fx.machine()
	o := NewOverlay(m)
	for r, v := range fx.ovRegs {
		o.WriteReg(r, v)
	}
	for _, b := range fx.ovBytes {
		o.WriteMem8(b.addr, b.b)
	}
	return m, o
}

// ovContents is an overlay's speculative state: its dirty registers and
// the dirty bytes of each word it tracks.
type ovContents struct {
	regDirty uint32
	regs     [isa.NumRegs]uint32
	words    map[uint32][2]uint32 // word index -> {data & lane mask, lane mask}
}

func contentsOf(o *Overlay) ovContents {
	c := ovContents{regDirty: o.regDirty, words: map[uint32][2]uint32{}}
	for r := range c.regs {
		if o.regDirty&(1<<r) != 0 {
			c.regs[r] = o.regs[r]
		}
	}
	add := func(s *ovSlot) {
		em := maskExpand[s.mask]
		c.words[s.word] = [2]uint32{s.data & em, em}
	}
	for i := 0; i < o.ninl; i++ {
		add(&o.inl[i])
	}
	if o.spilled {
		for i := range o.tab {
			if o.tab[i].gen == o.tgen {
				add(&o.tab[i])
			}
		}
	}
	return c
}

func sameContents(a, b ovContents) bool {
	if a.regDirty != b.regDirty || a.regs != b.regs || len(a.words) != len(b.words) {
		return false
	}
	for w, v := range a.words {
		if b.words[w] != v {
			return false
		}
	}
	return true
}

// checkResult compares one Exec outcome with one Execute result.
func checkResult(t *testing.T, where string, out Outcome, errE error, r Result, errX error) {
	t.Helper()
	for _, sentinel := range []error{ErrInvalidInst, ErrMisaligned, ErrBadSyscall} {
		if errors.Is(errE, sentinel) != errors.Is(errX, sentinel) {
			t.Fatalf("%s: Exec error %v, Execute error %v", where, errE, errX)
		}
	}
	if (errE == nil) != (errX == nil) {
		t.Fatalf("%s: Exec error %v, Execute error %v", where, errE, errX)
	}
	if errE != nil {
		return
	}
	want := Result{NextPC: out.NextPC, Addr: out.Addr, SyscallArg: out.SyscallArg,
		Flags: Flags{Taken: out.Taken, Load: out.IsLoad, Store: out.IsStore, Syscall: out.Syscall}}
	if r != want {
		t.Fatalf("%s: Execute = %+v, Exec says %+v", where, r, want)
	}
}

// FuzzExecuteMatchesExec holds the pipeline's typed executor to Exec, the
// reference: any 32-bit word, decoded (invalid encodings included), at
// any pc, over any register file and memory, executed architecturally
// and through an overlay with dirty registers and partly dirty words,
// must give the same next PC, transfer, access and syscall, the same
// error (with the same text on the architectural path, which the
// pipeline prints), and leave the same registers, memory and overlay
// contents.
func FuzzExecuteMatchesExec(f *testing.F) {
	seeds := []isa.Inst{
		isa.R(isa.OpADD, 3, 4, 5), isa.R(isa.OpSUB, 3, 4, 5), isa.R(isa.OpAND, 3, 4, 5),
		isa.R(isa.OpOR, 3, 4, 5), isa.R(isa.OpXOR, 3, 4, 5), isa.R(isa.OpNOR, 3, 4, 5),
		isa.R(isa.OpSLT, 3, 4, 5), isa.R(isa.OpSLTU, 3, 4, 5),
		isa.Shift(isa.OpSLL, 3, 4, 7), isa.Shift(isa.OpSRL, 3, 4, 7), isa.Shift(isa.OpSRA, 3, 4, 7),
		isa.R(isa.OpSLLV, 3, 4, 5), isa.R(isa.OpSRLV, 3, 4, 5), isa.R(isa.OpSRAV, 3, 4, 5),
		isa.R(isa.OpMUL, 3, 4, 5), isa.R(isa.OpDIV, 3, 4, 5), isa.R(isa.OpREM, 3, 4, 5),
		isa.R(isa.OpDIV, 3, 4, 0), isa.R(isa.OpADD, 0, 4, 5),
		isa.I(isa.OpADDI, 3, 4, -9), isa.I(isa.OpANDI, 3, 4, 0xF0F), isa.I(isa.OpORI, 3, 4, 0xF0F),
		isa.I(isa.OpXORI, 3, 4, 0xF0F), isa.I(isa.OpSLTI, 3, 4, -9), isa.I(isa.OpSLTIU, 3, 4, -9),
		isa.Lui(3, 0x8001),
		isa.Mem(isa.OpLW, 3, 4, 8), isa.Mem(isa.OpLH, 3, 4, 6), isa.Mem(isa.OpLHU, 3, 4, 6),
		isa.Mem(isa.OpLB, 3, 4, 7), isa.Mem(isa.OpLBU, 3, 4, 7),
		isa.Mem(isa.OpSW, 5, 4, 8), isa.Mem(isa.OpSH, 5, 4, 6), isa.Mem(isa.OpSB, 5, 4, 7),
		isa.Mem(isa.OpLW, 3, 4, 2), isa.Mem(isa.OpLH, 3, 4, 1), // misaligned
		isa.Mem(isa.OpSW, 5, 4, 2), isa.Mem(isa.OpSH, 5, 4, 1),
		isa.Branch(isa.OpBEQ, 4, 4, 5), isa.Branch(isa.OpBNE, 4, 5, -5),
		isa.Branch(isa.OpBLEZ, 4, 0, 5), isa.Branch(isa.OpBGTZ, 4, 0, 5),
		isa.Branch(isa.OpBLTZ, 4, 0, 5), isa.Branch(isa.OpBGEZ, 4, 0, 5),
		isa.Jump(isa.OpJ, 0x00400100), isa.Jump(isa.OpJAL, 0x00400100),
		isa.Jr(isa.RA), isa.Jr(4), isa.Jalr(isa.RA, 4), isa.Jalr(4, 4),
		isa.Syscall(),
	}
	// Register 4 is the base of every access: aligned at 0x10000000.
	regs := make([]byte, 4*isa.NumRegs)
	for r := 0; r < isa.NumRegs; r++ {
		binary.LittleEndian.PutUint32(regs[4*r:], uint32(r)*0x9E3779B9)
	}
	binary.LittleEndian.PutUint32(regs[16:], 0x10000000)
	for _, in := range seeds {
		f.Add(in.Raw, uint32(0x00400040), regs)
	}
	for v0 := uint32(1); v0 <= 4; v0++ { // three syscalls and an unknown one
		sys := append([]byte(nil), regs...)
		binary.LittleEndian.PutUint32(sys[4*isa.V0:], v0)
		f.Add(isa.Syscall().Raw, uint32(0x00400040), sys)
	}
	f.Add(uint32(0xFFFFFFFF), uint32(0x00400040), regs)
	f.Add(uint32(0xFFFFFFFF), uint32(0), []byte{})

	f.Fuzz(func(t *testing.T, word, pc uint32, data []byte) {
		in := isa.Decode(word)
		fx := newExecFixture(in, data)

		// Architecturally, on two copies of one machine.
		me, mx := fx.machine(), fx.machine()
		out, errE := Exec(me, pc, in)
		r, errX := Execute(mx, nil, pc, &in)
		checkResult(t, "machine", out, errE, r, errX)
		if errE != nil && errE.Error() != errX.Error() {
			t.Fatalf("machine: Exec error %q, Execute error %q", errE, errX)
		}
		if me.Regs != mx.Regs || me.PC != mx.PC || me.Mem.Digest() != mx.Mem.Digest() {
			t.Fatalf("machine: state differs after %s: regs %v vs %v", in.Disasm(pc), me.Regs, mx.Regs)
		}

		// Through an overlay over each copy.
		be, oe := fx.overlay()
		bx, ox := fx.overlay()
		out, errE = Exec(oe, pc, in)
		r, errX = Execute(bx, ox, pc, &in)
		checkResult(t, "overlay", out, errE, r, errX)
		if be.Regs != bx.Regs || be.Mem.Digest() != bx.Mem.Digest() {
			t.Fatalf("overlay: the base machine changed after %s", in.Disasm(pc))
		}
		if !sameContents(contentsOf(oe), contentsOf(ox)) {
			t.Fatalf("overlay: contents differ after %s:\nExec:    %+v\nExecute: %+v",
				in.Disasm(pc), contentsOf(oe), contentsOf(ox))
		}
	})
}
