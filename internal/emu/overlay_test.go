package emu

import (
	"testing"

	"retstack/internal/isa"
)

// TestOverlaySpill pushes a wrong-path footprint through the inline slots
// into the open-addressed table and across generation resets, checking
// byte-exactness against the map reference the whole way.
func TestOverlaySpill(t *testing.T) {
	m := NewMachine()
	for i := uint32(0); i < 64; i++ {
		m.Mem.Write32(0x1000+4*i, 0x01010101*i)
	}
	o := NewOverlay(m)
	var spills uint64
	o.SetSpillCounter(&spills)
	r := NewMapOverlay(m)

	// Three epochs, each dirtying far more than ovInlineSlots words.
	for epoch := 0; epoch < 3; epoch++ {
		for i := uint32(0); i < 200; i++ {
			addr := 0x1000 + 4*((i*7)%211)
			o.WriteMem32(addr, i<<8|uint32(epoch))
			r.WriteMem32(addr, i<<8|uint32(epoch))
		}
		// Partial-word stores over spilled words.
		for i := uint32(0); i < 50; i++ {
			addr := 0x1000 + (i*13)%800
			o.WriteMem8(addr, byte(i))
			r.WriteMem8(addr, byte(i))
		}
		for a := uint32(0x0FF0); a < 0x1400; a++ {
			if o.ReadMem8(a) != r.ReadMem8(a) {
				t.Fatalf("epoch %d: ReadMem8(%#x) = %#x, map says %#x",
					epoch, a, o.ReadMem8(a), r.ReadMem8(a))
			}
		}
		for a := uint32(0x0FF0); a < 0x1400; a += 4 {
			if o.ReadMem32(a) != r.ReadMem32(a) {
				t.Fatalf("epoch %d: ReadMem32(%#x) = %#x, map says %#x",
					epoch, a, o.ReadMem32(a), r.ReadMem32(a))
			}
		}
		o.Reset()
		r.Reset()
		if o.Dirty() {
			t.Fatal("dirty after reset")
		}
		if o.ReadMem32(0x1000) != m.Mem.Read32(0x1000) {
			t.Fatal("reset did not restore base view of spilled word")
		}
	}
	if spills != 3 {
		t.Fatalf("spill counter = %d, want 3 (one per epoch)", spills)
	}
}

// TestOverlayBaseMutation pins the multipath hazard the per-byte masks
// exist for: clean bytes must read the *current* base, which the correct
// path keeps mutating while wrong-path overlays are live.
func TestOverlayBaseMutation(t *testing.T) {
	m := NewMachine()
	m.Mem.Write32(0x100, 0xAABBCCDD)
	o := NewOverlay(m)

	o.WriteMem8(0x101, 0x11) // dirty one byte of the word
	m.Mem.Write32(0x100, 0x44332211)
	want := uint32(0x44331111) // dirty byte wins, clean bytes follow base
	if got := o.ReadMem32(0x100); got != want {
		t.Fatalf("partial-dirty read = %#x, want %#x", got, want)
	}
	r := NewMapOverlay(m)
	r.WriteMem8(0x101, 0x11)
	if got := r.ReadMem32(0x100); got != want {
		t.Fatalf("map reference disagrees: %#x, want %#x", got, want)
	}
}

// TestOverlayCopyFromAndRebase covers the pooled-reuse entry points.
func TestOverlayCopyFromAndRebase(t *testing.T) {
	m := NewMachine()
	m.Regs[isa.T0] = 9
	src := NewOverlay(m)
	src.WriteReg(isa.T1, 42)
	for i := uint32(0); i < 40; i++ { // force src to spill
		src.WriteMem32(0x2000+8*i, i)
	}

	dst := NewOverlay(m)
	dst.WriteMem32(0x9000, 1) // stale state CopyFrom must discard
	dst.CopyFrom(src)
	if dst.ReadReg(isa.T1) != 42 || dst.ReadReg(isa.T0) != 9 {
		t.Fatal("CopyFrom lost register state")
	}
	if dst.ReadMem32(0x9000) != 0 {
		t.Fatal("CopyFrom kept stale speculative state")
	}
	for i := uint32(0); i < 40; i++ {
		if dst.ReadMem32(0x2000+8*i) != i {
			t.Fatalf("CopyFrom lost spilled word %d", i)
		}
	}
	// Divergence after copy.
	dst.WriteMem32(0x2000, 999)
	if src.ReadMem32(0x2000) != 0 {
		t.Fatal("copy writes leaked into source")
	}

	m2 := NewMachine()
	m2.Regs[isa.T0] = 77
	dst.Rebase(m2)
	if dst.Dirty() || dst.ReadReg(isa.T0) != 77 || dst.Base() != State(m2) {
		t.Fatal("Rebase did not reset onto the new base")
	}
}

// TestOverlaySteadyStateAllocs pins the tentpole property: once an
// overlay's spill table has grown to fit the footprint, further
// write/read/reset epochs allocate nothing.
func TestOverlaySteadyStateAllocs(t *testing.T) {
	m := NewMachine()
	o := NewOverlay(m)
	epoch := func() {
		for i := uint32(0); i < 100; i++ {
			o.WriteMem32(0x1000+4*i, i)
			o.WriteMem8(0x3000+i, byte(i))
		}
		for i := uint32(0); i < 100; i++ {
			_ = o.ReadMem32(0x1000 + 4*i)
		}
		o.Reset()
	}
	epoch() // warm the table up to footprint size
	if n := testing.AllocsPerRun(100, epoch); n != 0 {
		t.Fatalf("steady-state epoch allocates %v times, want 0", n)
	}
}

// FuzzOverlayStore drives the flat overlay and the map reference with the
// same operation stream and demands identical reads. Besides memory stores,
// loads and Reset, the stream exercises every entry point the pipeline
// uses: register writes, a fork drawn from the pool (CopyFrom into a spare
// overlay holding stale state), Clone, and Rebase onto either of two
// machines. The map side forks with Clone and rebases to a fresh overlay.
// The op stream is decoded from raw bytes: op, addr (2 bytes, keeping
// footprints collisive), value.
func FuzzOverlayStore(f *testing.F) {
	f.Add([]byte{0, 0x10, 0x00, 7, 1, 0x10, 0x02, 9})
	f.Add([]byte{2, 0x20, 0x00, 1, 3, 0x20, 0x00, 0, 4, 0, 0, 0})
	seed := make([]byte, 0, 400)
	for i := 0; i < 100; i++ { // long stream: guarantees inline-slot spill
		seed = append(seed, byte(i%5), byte(i*7), byte(i), byte(i*3))
	}
	f.Add(seed)
	seed = nil
	for r := 0; r < 32; r++ { // every register dirty, then fork and compare
		seed = append(seed, 5, byte(r), 0, byte(r+1))
	}
	f.Add(append(seed, 7, 0, 0, 0, 6, 0, 0, 0, 8, 0, 0, 0, 6, 0, 0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		var bases [2]*Machine
		for b := range bases {
			m := NewMachine()
			for i := uint32(0); i < 1024; i += 4 {
				m.Mem.Write32(i, i*2654435761+uint32(b))
			}
			for r := range m.Regs {
				m.WriteReg(r, uint32(r)*0x01010101+uint32(b))
			}
			bases[b] = m
		}
		o, spare := NewOverlay(bases[0]), NewOverlay(bases[1])
		r := NewMapOverlay(bases[0])
		regs := func(when string) {
			for i := 0; i < isa.NumRegs; i++ {
				if o.ReadReg(i) != r.ReadReg(i) {
					t.Fatalf("%s: ReadReg(%d) = %#x, map says %#x", when, i, o.ReadReg(i), r.ReadReg(i))
				}
			}
		}
		for len(data) >= 4 {
			op, a1, a2, v := data[0], data[1], data[2], data[3]
			data = data[4:]
			addr := uint32(a1)<<8 | uint32(a2)
			switch op % 10 {
			case 0:
				o.WriteMem8(addr, v)
				r.WriteMem8(addr, v)
			case 1:
				o.WriteMem16(addr, uint16(v)<<8|uint16(v^0x5A))
				r.WriteMem16(addr, uint16(v)<<8|uint16(v^0x5A))
			case 2:
				o.WriteMem32(addr, uint32(v)*0x01010101)
				r.WriteMem32(addr, uint32(v)*0x01010101)
			case 3:
				if o.ReadMem8(addr) != r.ReadMem8(addr) ||
					o.ReadMem16(addr) != r.ReadMem16(addr) ||
					o.ReadMem32(addr) != r.ReadMem32(addr) {
					t.Fatalf("read mismatch at %#x", addr)
				}
			case 4:
				o.Reset()
				r.Reset()
			case 5:
				o.WriteReg(int(a1)%isa.NumRegs, uint32(v)*0x01010101)
				r.WriteReg(int(a1)%isa.NumRegs, uint32(v)*0x01010101)
			case 6:
				regs("registers")
			case 7: // fork from the pool; the source becomes the next spare
				spare.CopyFrom(o)
				o, spare = spare, o
				r = r.Clone()
			case 8:
				o, spare = o.Clone(), o
				r = r.Clone()
			case 9:
				o.Rebase(bases[v%2])
				r = NewMapOverlay(bases[v%2])
			}
			if o.Dirty() != r.Dirty() {
				t.Fatalf("Dirty() mismatch: flat %v, map %v", o.Dirty(), r.Dirty())
			}
		}
		regs("final sweep")
		for a := uint32(0); a < 1024; a++ {
			if o.ReadMem8(a) != r.ReadMem8(a) {
				t.Fatalf("final sweep: ReadMem8(%#x) = %#x, map says %#x",
					a, o.ReadMem8(a), r.ReadMem8(a))
			}
		}
	})
}

// overlayStoreLoop is the shared benchmark body: a wrong-path-like epoch of
// word stores, partial stores, and reloads, ended by a Reset.
func overlayStoreLoop(b *testing.B, o interface {
	State
	Reset()
}) {
	b.ReportAllocs()
	var sink uint32
	// One untimed epoch first: the overlay's lazy structures (spill table,
	// map buckets) are built on first use, and CI compares allocs/op at
	// -benchtime 1x against the committed steady-state numbers.
	for w := uint32(0); w < 24; w++ {
		o.WriteMem32(0x1000+4*w, w)
	}
	o.Reset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for w := uint32(0); w < 24; w++ {
			o.WriteMem32(0x1000+4*w, w^uint32(i))
		}
		o.WriteMem8(0x1005, byte(i))
		for w := uint32(0); w < 24; w++ {
			sink += o.ReadMem32(0x1000 + 4*w)
		}
		o.Reset()
	}
	_ = sink
}

// BenchmarkOverlayStore measures the flat wrong-path overlay's store/load/
// reset epoch; BenchmarkOverlayStoreMap is the original map implementation
// on the same workload for comparison.
func BenchmarkOverlayStore(b *testing.B) {
	m := NewMachine()
	overlayStoreLoop(b, NewOverlay(m))
}

func BenchmarkOverlayStoreMap(b *testing.B) {
	m := NewMachine()
	overlayStoreLoop(b, NewMapOverlay(m))
}
