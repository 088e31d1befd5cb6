package emu

import "retstack/internal/isa"

// Overlay is the flat copy-on-write view the pipeline executes wrong-path
// instructions against. Registers shadow the base through a dirty bitmap
// and a value array; memory is tracked at word granularity with a
// per-byte dirty mask so partial stores stay byte-exact while the common
// aligned word access is a single slot lookup.
//
// Clean bytes must always fall through to the *current* base: under
// multipath the correct path keeps mutating the architectural Machine while
// wrong-path overlays are live, so capturing base words at write time would
// drift. The per-byte masks are what keep the flat store byte-identical to
// a per-byte map (the MapOverlay oracle in the tests).
//
// A typical wrong path touches a handful of words, so slots live in a small
// inline array scanned linearly; overflow spills to an open-addressed table
// that resets in O(1) via a generation stamp (a slot is live iff its gen
// matches the overlay's current epoch — no deletes, so linear probing needs
// no tombstones). The table is retained across Reset, which makes a pooled
// Overlay allocation-free in steady state.
type Overlay struct {
	base     *Machine
	regDirty uint32 // bitmap over the 32 architectural registers
	regs     [isa.NumRegs]uint32

	inl  [ovInlineSlots]ovSlot
	ninl int

	tab     []ovSlot
	tgen    uint32 // current epoch; table slot live iff slot.gen == tgen
	tlive   int    // live table entries this epoch
	spilled bool   // table engaged since the last Reset

	spillCount *uint64 // optional telemetry hook, bumped once per spill epoch
}

// ovSlot holds one dirty word: data carries the speculative bytes in their
// memory lanes, mask has bit i set iff byte (word<<2)+i is dirty.
type ovSlot struct {
	word uint32
	data uint32
	mask uint8
	gen  uint32 // epoch stamp; meaningful only for table slots
}

const (
	ovInlineSlots = 12
	ovTableInit   = 64
	ovHashMul     = 2654435761 // Knuth multiplicative hash
)

// maskExpand widens a 4-bit byte mask to a 32-bit lane mask
// (bit i -> byte lane i), so partial-dirty words merge with the base in two
// AND/OR ops instead of four byte reads.
var maskExpand = [16]uint32{
	0x00000000, 0x000000FF, 0x0000FF00, 0x0000FFFF,
	0x00FF0000, 0x00FF00FF, 0x00FFFF00, 0x00FFFFFF,
	0xFF000000, 0xFF0000FF, 0xFF00FF00, 0xFF00FFFF,
	0xFFFF0000, 0xFFFF00FF, 0xFFFFFF00, 0xFFFFFFFF,
}

// NewOverlay returns an empty flat overlay on base.
func NewOverlay(base *Machine) *Overlay {
	return &Overlay{base: base}
}

// Base returns the machine this overlay falls through to.
func (o *Overlay) Base() *Machine { return o.base }

// SetSpillCounter points the overlay at a counter bumped once per reset
// epoch in which the inline slots overflow into the table. Pass nil to
// detach.
func (o *Overlay) SetSpillCounter(c *uint64) { o.spillCount = c }

// Reset discards every speculative register and memory update in O(1):
// the inline array is truncated and the table epoch advances, orphaning all
// table slots without touching them.
func (o *Overlay) Reset() {
	o.regDirty = 0
	o.ninl = 0
	if o.spilled {
		o.spilled = false
		o.tlive = 0
		o.tgen++
		if o.tgen == 0 { // epoch wrapped: stale stamps become ambiguous, wipe
			for i := range o.tab {
				o.tab[i].gen = 0
			}
			o.tgen = 1
		}
	}
}

// Rebase resets the overlay and retargets it at a new base, making a pooled
// overlay reusable across paths and simulator instances.
func (o *Overlay) Rebase(base *Machine) {
	o.Reset()
	o.base = base
}

// CopyFrom resets the overlay and copies src's base and full speculative
// state into it (the pooled equivalent of Clone, used when a wrong path
// forks). src must not be the receiver.
func (o *Overlay) CopyFrom(src *Overlay) {
	o.Reset()
	o.base = src.base
	o.regDirty = src.regDirty
	o.regs = src.regs
	o.ninl = src.ninl
	copy(o.inl[:src.ninl], src.inl[:src.ninl])
	if src.spilled {
		for i := range src.tab {
			s := &src.tab[i]
			if s.gen != src.tgen {
				continue
			}
			t := o.insertTable(s.word)
			t.data, t.mask = s.data, s.mask
		}
	}
}

// Retarget points the overlay at another base, keeping its speculative
// state: a machine copied mid-run moves its copied overlays onto the
// copied machine.
func (o *Overlay) Retarget(base *Machine) { o.base = base }

// Clone returns an independent overlay over the same base with a copy of
// the current speculative state.
func (o *Overlay) Clone() *Overlay {
	n := NewOverlay(o.base)
	n.CopyFrom(o)
	return n
}

// Dirty reports whether the overlay holds any speculative state. Memory
// dirtiness reduces to ninl > 0 because the inline array always fills
// before the table engages.
func (o *Overlay) Dirty() bool { return o.regDirty != 0 || o.ninl > 0 }

// find returns the slot for word index w, or nil if w is clean.
func (o *Overlay) find(w uint32) *ovSlot {
	for i := 0; i < o.ninl; i++ {
		if o.inl[i].word == w {
			return &o.inl[i]
		}
	}
	if !o.spilled {
		return nil
	}
	m := uint32(len(o.tab) - 1)
	for i := (w * ovHashMul) & m; ; i = (i + 1) & m {
		s := &o.tab[i]
		if s.gen != o.tgen {
			return nil
		}
		if s.word == w {
			return s
		}
	}
}

// slot returns the slot for word index w, creating it (with an empty mask)
// if absent.
func (o *Overlay) slot(w uint32) *ovSlot {
	if s := o.find(w); s != nil {
		return s
	}
	if o.ninl < ovInlineSlots {
		s := &o.inl[o.ninl]
		o.ninl++
		*s = ovSlot{word: w}
		return s
	}
	return o.insertTable(w)
}

// insertTable places a fresh slot for w in the open-addressed table,
// engaging (and if needed allocating or growing) it first.
func (o *Overlay) insertTable(w uint32) *ovSlot {
	if !o.spilled {
		o.spilled = true
		if o.spillCount != nil {
			*o.spillCount++
		}
		if o.tab == nil {
			o.tab = make([]ovSlot, ovTableInit)
			o.tgen = 1
		}
	}
	if o.tlive >= len(o.tab)*3/4 {
		o.grow()
	}
	m := uint32(len(o.tab) - 1)
	for i := (w * ovHashMul) & m; ; i = (i + 1) & m {
		s := &o.tab[i]
		if s.gen != o.tgen {
			*s = ovSlot{word: w, gen: o.tgen}
			o.tlive++
			return s
		}
	}
}

// grow doubles the table, rehashing this epoch's live slots.
func (o *Overlay) grow() {
	old, ogen := o.tab, o.tgen
	o.tab = make([]ovSlot, 2*len(old))
	o.tgen = 1
	m := uint32(len(o.tab) - 1)
	for i := range old {
		s := &old[i]
		if s.gen != ogen {
			continue
		}
		for j := (s.word * ovHashMul) & m; ; j = (j + 1) & m {
			if o.tab[j].gen != 1 {
				o.tab[j] = ovSlot{word: s.word, data: s.data, mask: s.mask, gen: 1}
				break
			}
		}
	}
}

// ReadReg implements State.
func (o *Overlay) ReadReg(r int) uint32 {
	if o.regDirty&(1<<uint(r)) != 0 {
		return o.regs[r]
	}
	return o.base.ReadReg(r)
}

// WriteReg implements State.
func (o *Overlay) WriteReg(r int, v uint32) {
	if r == isa.Zero {
		return
	}
	o.regDirty |= 1 << uint(r)
	o.regs[r] = v
}

// ReadMem8 implements State.
func (o *Overlay) ReadMem8(addr uint32) byte {
	if s := o.find(addr >> 2); s != nil {
		lane := addr & 3
		if s.mask&(1<<lane) != 0 {
			return byte(s.data >> (8 * lane))
		}
	}
	return o.base.ReadMem8(addr)
}

// WriteMem8 implements State.
func (o *Overlay) WriteMem8(addr uint32, v byte) {
	s := o.slot(addr >> 2)
	lane := addr & 3
	s.data = s.data&^(0xFF<<(8*lane)) | uint32(v)<<(8*lane)
	s.mask |= 1 << lane
}

// ReadMem16 implements State.
func (o *Overlay) ReadMem16(addr uint32) uint16 {
	return uint16(o.ReadMem8(addr)) | uint16(o.ReadMem8(addr+1))<<8
}

// WriteMem16 implements State.
func (o *Overlay) WriteMem16(addr uint32, v uint16) {
	o.WriteMem8(addr, byte(v))
	o.WriteMem8(addr+1, byte(v>>8))
}

// ReadMem32 implements State. Aligned reads (the LW case — exec rejects
// misaligned word accesses) are one slot lookup; a partially dirty word
// merges with the live base through the lane mask.
func (o *Overlay) ReadMem32(addr uint32) uint32 {
	if addr&3 == 0 {
		s := o.find(addr >> 2)
		if s == nil {
			return o.base.ReadMem32(addr)
		}
		if s.mask == 0xF {
			return s.data
		}
		em := maskExpand[s.mask]
		return s.data&em | o.base.ReadMem32(addr)&^em
	}
	return uint32(o.ReadMem16(addr)) | uint32(o.ReadMem16(addr+2))<<16
}

// WriteMem32 implements State. The aligned case dirties one whole word.
func (o *Overlay) WriteMem32(addr uint32, v uint32) {
	if addr&3 == 0 {
		s := o.slot(addr >> 2)
		s.data = v
		s.mask = 0xF
		return
	}
	o.WriteMem16(addr, uint16(v))
	o.WriteMem16(addr+2, uint16(v>>16))
}
