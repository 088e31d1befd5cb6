package emu

import "retstack/internal/isa"

// MapOverlay is the original copy-on-write view over a base State: register
// and memory writes land in the overlay; reads prefer the overlay and fall
// through to the base. Reset discards all speculative updates in O(dirty).
//
// Memory is tracked at byte granularity in a Go map, which keeps
// partial-word stores and overlapping wrong-path accesses exact but costs a
// map operation per byte touched and an allocation per Reset. It is the
// test oracle for Overlay (the flat store the pipeline runs): the overlay
// tests and FuzzOverlayStore drive both and demand identical reads.
type MapOverlay struct {
	base     State
	regDirty uint32 // bitmap over the 32 architectural registers
	regs     [isa.NumRegs]uint32
	mem      map[uint32]byte
}

// NewMapOverlay returns an empty map overlay on base.
func NewMapOverlay(base State) *MapOverlay {
	return &MapOverlay{base: base, mem: make(map[uint32]byte)}
}

// Clone returns an independent overlay over the same base with a copy of
// the current speculative state (used when a wrong path forks).
func (o *MapOverlay) Clone() *MapOverlay {
	n := &MapOverlay{base: o.base, regDirty: o.regDirty, regs: o.regs,
		mem: make(map[uint32]byte, len(o.mem))}
	for k, v := range o.mem {
		n.mem[k] = v
	}
	return n
}

// Reset discards every speculative register and memory update.
func (o *MapOverlay) Reset() {
	o.regDirty = 0
	if len(o.mem) > 0 {
		o.mem = make(map[uint32]byte)
	}
}

// Dirty reports whether the overlay holds any speculative state.
func (o *MapOverlay) Dirty() bool { return o.regDirty != 0 || len(o.mem) > 0 }

// ReadReg implements State.
func (o *MapOverlay) ReadReg(r int) uint32 {
	if o.regDirty&(1<<uint(r)) != 0 {
		return o.regs[r]
	}
	return o.base.ReadReg(r)
}

// WriteReg implements State.
func (o *MapOverlay) WriteReg(r int, v uint32) {
	if r == isa.Zero {
		return
	}
	o.regDirty |= 1 << uint(r)
	o.regs[r] = v
}

// ReadMem8 implements State.
func (o *MapOverlay) ReadMem8(addr uint32) byte {
	if b, ok := o.mem[addr]; ok {
		return b
	}
	return o.base.ReadMem8(addr)
}

// WriteMem8 implements State.
func (o *MapOverlay) WriteMem8(addr uint32, v byte) { o.mem[addr] = v }

// ReadMem16 implements State.
func (o *MapOverlay) ReadMem16(addr uint32) uint16 {
	return uint16(o.ReadMem8(addr)) | uint16(o.ReadMem8(addr+1))<<8
}

// WriteMem16 implements State.
func (o *MapOverlay) WriteMem16(addr uint32, v uint16) {
	o.WriteMem8(addr, byte(v))
	o.WriteMem8(addr+1, byte(v>>8))
}

// ReadMem32 implements State.
func (o *MapOverlay) ReadMem32(addr uint32) uint32 {
	return uint32(o.ReadMem16(addr)) | uint32(o.ReadMem16(addr+2))<<16
}

// WriteMem32 implements State.
func (o *MapOverlay) WriteMem32(addr uint32, v uint32) {
	o.WriteMem16(addr, uint16(v))
	o.WriteMem16(addr+2, uint16(v>>16))
}
