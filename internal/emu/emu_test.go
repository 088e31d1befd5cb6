package emu

import (
	"testing"
	"testing/quick"

	"retstack/internal/isa"
	"retstack/internal/program"
)

func TestMemorySparse(t *testing.T) {
	m := NewMemory()
	if got := m.Read32(0x1234); got != 0 {
		t.Errorf("unmapped read = %#x, want 0", got)
	}
	if m.PageCount() != 0 {
		t.Error("read allocated a page")
	}
	m.Write32(0x1000, 0xDEADBEEF)
	if got := m.Read32(0x1000); got != 0xDEADBEEF {
		t.Errorf("read back = %#x", got)
	}
	if got := m.Read8(0x1000); got != 0xEF {
		t.Errorf("little-endian low byte = %#x, want 0xEF", got)
	}
	m.Write16(0x2000, 0xBEEF)
	if got := m.Read16(0x2000); got != 0xBEEF {
		t.Errorf("halfword = %#x", got)
	}
	// Cross-page word access.
	m.Write32(pageSize-2, 0x11223344)
	if got := m.Read32(pageSize - 2); got != 0x11223344 {
		t.Errorf("cross-page word = %#x", got)
	}
}

// TestMemoryPageCacheClone holds the two-entry page cache to a byte map:
// word, halfword and byte accesses alternating over three pages (so every
// access hits the first entry, hits the second and swaps, or misses)
// must read back the last writes, on the memory and on a clone taken
// mid-stream, and neither may see the other's later writes. A clone whose
// cache entries still pointed at the original's pages would fail here.
func TestMemoryPageCacheClone(t *testing.T) {
	pages := []uint32{0x10000000, 0x7FFFE000, 0x10004000}
	type side struct {
		mem  *Memory
		want map[uint32]byte
	}
	orig := &side{NewMemory(), map[uint32]byte{}}
	seed := uint32(1)
	rand := func() uint32 {
		seed = seed*1103515245 + 12345
		return seed >> 8
	}
	step := func(s *side, i int) {
		// Two of every three accesses alternate between the first two
		// pages; the third goes to the third page.
		page := pages[i%2]
		if i%3 == 2 {
			page = pages[2]
		}
		addr := page + rand()%pageSize
		size := []uint32{1, 2, 4}[rand()%3]
		addr &^= size - 1
		v := rand()
		switch size {
		case 1:
			s.mem.Write8(addr, byte(v))
		case 2:
			s.mem.Write16(addr, uint16(v))
		case 4:
			s.mem.Write32(addr, v)
		}
		for b := uint32(0); b < size; b++ {
			s.want[addr+b] = byte(v >> (8 * b))
		}
		probe := page + rand()%(pageSize-3)
		want := uint32(s.want[probe]) | uint32(s.want[probe+1])<<8 |
			uint32(s.want[probe+2])<<16 | uint32(s.want[probe+3])<<24
		if got := s.mem.Read32(probe); got != want {
			t.Fatalf("access %d: word at %#x = %#x, want %#x", i, probe, got, want)
		}
		if got, want := s.mem.Read16(probe), uint16(want); got != want {
			t.Fatalf("access %d: halfword at %#x = %#x, want %#x", i, probe, got, want)
		}
		if got, want := s.mem.Read8(addr), s.want[addr]; got != want {
			t.Fatalf("access %d: byte at %#x = %#x, want %#x", i, addr, got, want)
		}
	}
	for i := 0; i < 3000; i++ {
		step(orig, i)
	}
	want := make(map[uint32]byte, len(orig.want))
	for k, v := range orig.want {
		want[k] = v
	}
	clone := &side{orig.mem.clone(), want}
	for i := 0; i < 6000; i++ {
		// Alternate the two memories, each continuing its own stream.
		s := orig
		if i%2 == 1 {
			s = clone
		}
		step(s, 3000+i/2)
	}
	for _, s := range []*side{orig, clone} {
		for addr, v := range s.want {
			if got := s.mem.Read8(addr); got != v {
				t.Fatalf("byte at %#x = %#x, want %#x: a write crossed between the memory and its clone", addr, got, v)
			}
		}
	}
}

func TestMemoryQuickWordRoundTrip(t *testing.T) {
	m := NewMemory()
	f := func(addr, v uint32) bool {
		m.Write32(addr, v)
		return m.Read32(addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// execOne runs a single instruction on a fresh machine with the given
// pre-state mutation and returns the machine.
func execOne(t *testing.T, in isa.Inst, setup func(*Machine)) (*Machine, Outcome) {
	t.Helper()
	m := NewMachine()
	m.PC = 0x1000
	if setup != nil {
		setup(m)
	}
	out, err := Exec(m, m.PC, in)
	if err != nil {
		t.Fatalf("exec %s: %v", in, err)
	}
	return m, out
}

func TestALUSemantics(t *testing.T) {
	cases := []struct {
		in     isa.Inst
		rs, rt uint32
		want   uint32
	}{
		{isa.R(isa.OpADD, isa.T2, isa.T0, isa.T1), 5, 7, 12},
		{isa.R(isa.OpSUB, isa.T2, isa.T0, isa.T1), 5, 7, 0xFFFFFFFE},
		{isa.R(isa.OpAND, isa.T2, isa.T0, isa.T1), 0xF0F0, 0xFF00, 0xF000},
		{isa.R(isa.OpOR, isa.T2, isa.T0, isa.T1), 0xF0F0, 0x0F00, 0xFFF0},
		{isa.R(isa.OpXOR, isa.T2, isa.T0, isa.T1), 0xFF, 0x0F, 0xF0},
		{isa.R(isa.OpNOR, isa.T2, isa.T0, isa.T1), 0, 0, 0xFFFFFFFF},
		{isa.R(isa.OpSLT, isa.T2, isa.T0, isa.T1), 0xFFFFFFFF, 0, 1},  // -1 < 0
		{isa.R(isa.OpSLTU, isa.T2, isa.T0, isa.T1), 0xFFFFFFFF, 0, 0}, // max > 0
		{isa.R(isa.OpMUL, isa.T2, isa.T0, isa.T1), 6, 7, 42},
		{isa.R(isa.OpDIV, isa.T2, isa.T0, isa.T1), 42, 5, 8},
		{isa.R(isa.OpDIV, isa.T2, isa.T0, isa.T1), 42, 0, 0}, // div-by-zero -> 0
		{isa.R(isa.OpREM, isa.T2, isa.T0, isa.T1), 42, 5, 2},
		{isa.R(isa.OpREM, isa.T2, isa.T0, isa.T1), 42, 0, 0},
		{isa.R(isa.OpSLLV, isa.T2, isa.T0, isa.T1), 4, 1, 16}, // rt << rs
		{isa.R(isa.OpSRAV, isa.T2, isa.T0, isa.T1), 1, 0x80000000, 0xC0000000},
	}
	for _, c := range cases {
		m, out := execOne(t, c.in, func(m *Machine) {
			m.Regs[isa.T0] = c.rs
			m.Regs[isa.T1] = c.rt
		})
		if m.Regs[isa.T2] != c.want {
			t.Errorf("%s (rs=%#x rt=%#x): got %#x, want %#x", c.in, c.rs, c.rt, m.Regs[isa.T2], c.want)
		}
		if out.Dest != isa.T2 || out.Value != c.want {
			t.Errorf("%s: outcome dest/value mismatch", c.in)
		}
	}
}

func TestShiftAndImmediates(t *testing.T) {
	m, _ := execOne(t, isa.Shift(isa.OpSRA, isa.T2, isa.T0, 4), func(m *Machine) {
		m.Regs[isa.T0] = 0x80000000
	})
	if m.Regs[isa.T2] != 0xF8000000 {
		t.Errorf("sra = %#x", m.Regs[isa.T2])
	}
	m, _ = execOne(t, isa.I(isa.OpADDI, isa.T2, isa.T0, -3), func(m *Machine) {
		m.Regs[isa.T0] = 10
	})
	if m.Regs[isa.T2] != 7 {
		t.Errorf("addi = %d", m.Regs[isa.T2])
	}
	m, _ = execOne(t, isa.Lui(isa.T2, 0xABCD), nil)
	if m.Regs[isa.T2] != 0xABCD0000 {
		t.Errorf("lui = %#x", m.Regs[isa.T2])
	}
	m, _ = execOne(t, isa.I(isa.OpSLTIU, isa.T2, isa.T0, -1), func(m *Machine) {
		m.Regs[isa.T0] = 5
	})
	// sltiu compares against sign-extended-then-unsigned immediate (huge).
	if m.Regs[isa.T2] != 1 {
		t.Errorf("sltiu = %d, want 1", m.Regs[isa.T2])
	}
}

func TestZeroRegisterImmutable(t *testing.T) {
	m, out := execOne(t, isa.I(isa.OpADDI, isa.Zero, isa.Zero, 99), nil)
	if m.Regs[isa.Zero] != 0 {
		t.Error("$zero was written")
	}
	if out.Dest != -1 {
		t.Error("write to $zero should report no destination")
	}
}

func TestLoadsStores(t *testing.T) {
	m, out := execOne(t, isa.Mem(isa.OpSW, isa.T0, isa.T1, 4), func(m *Machine) {
		m.Regs[isa.T0] = 0xCAFEBABE
		m.Regs[isa.T1] = 0x2000
	})
	if !out.IsStore || out.Addr != 0x2004 || out.Size != 4 {
		t.Errorf("sw outcome = %+v", out)
	}
	if got := m.Mem.Read32(0x2004); got != 0xCAFEBABE {
		t.Errorf("stored %#x", got)
	}

	m, out = execOne(t, isa.Mem(isa.OpLB, isa.T2, isa.T1, 0), func(m *Machine) {
		m.Regs[isa.T1] = 0x3000
		m.Mem.Write8(0x3000, 0x80)
	})
	if !out.IsLoad || m.Regs[isa.T2] != 0xFFFFFF80 {
		t.Errorf("lb sign extension: got %#x", m.Regs[isa.T2])
	}
	m, _ = execOne(t, isa.Mem(isa.OpLBU, isa.T2, isa.T1, 0), func(m *Machine) {
		m.Regs[isa.T1] = 0x3000
		m.Mem.Write8(0x3000, 0x80)
	})
	if m.Regs[isa.T2] != 0x80 {
		t.Errorf("lbu zero extension: got %#x", m.Regs[isa.T2])
	}
	m, _ = execOne(t, isa.Mem(isa.OpLH, isa.T2, isa.T1, 0), func(m *Machine) {
		m.Regs[isa.T1] = 0x3000
		m.Mem.Write16(0x3000, 0x8000)
	})
	if m.Regs[isa.T2] != 0xFFFF8000 {
		t.Errorf("lh sign extension: got %#x", m.Regs[isa.T2])
	}
}

func TestMisalignedAccess(t *testing.T) {
	m := NewMachine()
	m.Regs[isa.T1] = 0x2001
	if _, err := Exec(m, 0, isa.Mem(isa.OpLW, isa.T0, isa.T1, 0)); err == nil {
		t.Error("misaligned lw should error")
	}
	if _, err := Exec(m, 0, isa.Mem(isa.OpSH, isa.T0, isa.T1, 0)); err == nil {
		t.Error("misaligned sh should error")
	}
}

func TestBranchesAndJumps(t *testing.T) {
	const pc = 0x1000
	cases := []struct {
		in    isa.Inst
		rs    uint32
		rt    uint32
		taken bool
	}{
		{isa.Branch(isa.OpBEQ, isa.T0, isa.T1, 16), 5, 5, true},
		{isa.Branch(isa.OpBEQ, isa.T0, isa.T1, 16), 5, 6, false},
		{isa.Branch(isa.OpBNE, isa.T0, isa.T1, 16), 5, 6, true},
		{isa.Branch(isa.OpBLEZ, isa.T0, 0, 16), 0, 0, true},
		{isa.Branch(isa.OpBLEZ, isa.T0, 0, 16), 1, 0, false},
		{isa.Branch(isa.OpBGTZ, isa.T0, 0, 16), 1, 0, true},
		{isa.Branch(isa.OpBLTZ, isa.T0, 0, 16), 0xFFFFFFFF, 0, true},
		{isa.Branch(isa.OpBGEZ, isa.T0, 0, 16), 0, 0, true},
	}
	for _, c := range cases {
		_, out := execOne(t, c.in, func(m *Machine) {
			m.Regs[isa.T0] = c.rs
			m.Regs[isa.T1] = c.rt
		})
		if !out.Control {
			t.Errorf("%s: not marked control", c.in)
		}
		if out.Taken != c.taken {
			t.Errorf("%s (rs=%d rt=%d): taken=%v, want %v", c.in, int32(c.rs), int32(c.rt), out.Taken, c.taken)
		}
		wantNext := uint32(pc + 4)
		if c.taken {
			wantNext = pc + 4 + 16*4
		}
		if out.NextPC != wantNext {
			t.Errorf("%s: next=%#x want %#x", c.in, out.NextPC, wantNext)
		}
	}

	m, out := execOne(t, isa.Jump(isa.OpJAL, 0x4000), nil)
	if out.Target != 0x4000 || m.Regs[isa.RA] != pc+4 {
		t.Errorf("jal: target=%#x ra=%#x", out.Target, m.Regs[isa.RA])
	}
	_, out = execOne(t, isa.Jr(isa.RA), func(m *Machine) { m.Regs[isa.RA] = 0xBEEF0 })
	if out.Target != 0xBEEF0 || !out.Taken {
		t.Errorf("jr: %+v", out)
	}
	m, out = execOne(t, isa.Jalr(isa.RA, isa.T9), func(m *Machine) { m.Regs[isa.T9] = 0x5000 })
	if out.Target != 0x5000 || m.Regs[isa.RA] != pc+4 {
		t.Errorf("jalr: target=%#x ra=%#x", out.Target, m.Regs[isa.RA])
	}
}

func TestSyscallOutcomes(t *testing.T) {
	_, out := execOne(t, isa.Syscall(), func(m *Machine) {
		m.Regs[isa.V0] = uint32(SysPutInt)
		m.Regs[isa.A0] = 42
	})
	if out.Syscall != SysPutInt || out.SyscallArg != 42 {
		t.Errorf("syscall outcome = %+v", out)
	}
	m := NewMachine()
	m.Regs[isa.V0] = 99
	if _, err := Exec(m, 0, isa.Syscall()); err == nil {
		t.Error("unknown syscall should error")
	}
}

func TestInvalidInstruction(t *testing.T) {
	m := NewMachine()
	if _, err := Exec(m, 0, isa.Decode(0xFFFFFFFF)); err == nil {
		t.Error("invalid word should error")
	}
}

// TestFactorialProgram runs a recursive factorial through the Builder and
// the architectural machine end to end.
func TestFactorialProgram(t *testing.T) {
	b := program.NewBuilder()
	b.Label("main")
	b.Li(isa.A0, 10)
	b.Jal("fact")
	// print result, exit
	b.Emit(isa.R(isa.OpADD, isa.A0, isa.V0, isa.Zero))
	b.Li(isa.V0, int32(SysPutInt))
	b.Emit(isa.Syscall())
	b.Li(isa.V0, int32(SysExit))
	b.Li(isa.A0, 0)
	b.Emit(isa.Syscall())

	// fact(n): if n <= 1 return 1 else return n * fact(n-1)
	b.Label("fact")
	b.Emit(
		isa.I(isa.OpADDI, isa.SP, isa.SP, -8),
		isa.Mem(isa.OpSW, isa.RA, isa.SP, 0),
		isa.Mem(isa.OpSW, isa.A0, isa.SP, 4),
	)
	b.BranchTo(isa.OpBGTZ, isa.A0, 0, "fact_rec")
	b.Li(isa.V0, 1)
	b.J("fact_ret")
	b.Label("fact_rec")
	b.Emit(isa.I(isa.OpSLTI, isa.T0, isa.A0, 2)) // n < 2 ?
	b.BranchTo(isa.OpBNE, isa.T0, isa.Zero, "fact_base")
	b.Emit(isa.I(isa.OpADDI, isa.A0, isa.A0, -1))
	b.Jal("fact")
	b.Emit(
		isa.Mem(isa.OpLW, isa.A0, isa.SP, 4),
		isa.R(isa.OpMUL, isa.V0, isa.A0, isa.V0),
	)
	b.J("fact_ret")
	b.Label("fact_base")
	b.Li(isa.V0, 1)
	b.Label("fact_ret")
	b.Emit(
		isa.Mem(isa.OpLW, isa.RA, isa.SP, 0),
		isa.I(isa.OpADDI, isa.SP, isa.SP, 8),
		isa.Jr(isa.RA),
	)

	im, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine()
	m.Load(im)
	if _, err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if !m.Halted || m.ExitCode != 0 {
		t.Fatalf("halted=%v exit=%d", m.Halted, m.ExitCode)
	}
	if got, want := m.Output(), "3628800\n"; got != want {
		t.Errorf("output %q, want %q", got, want)
	}
	// main calls fact(10); fact(10)..fact(2) each recurse once: 10 calls.
	if m.Calls != 10 {
		t.Errorf("calls = %d, want 10", m.Calls)
	}
	if m.Returns != m.Calls {
		t.Errorf("returns = %d, want %d", m.Returns, m.Calls)
	}
	if m.MaxDepth != 10 {
		t.Errorf("max depth = %d, want 10", m.MaxDepth)
	}
}

func TestOverlayIsolation(t *testing.T) {
	m := NewMachine()
	m.Regs[isa.T0] = 100
	m.Mem.Write32(0x1000, 7)

	o := NewOverlay(m)
	o.WriteReg(isa.T0, 5)
	o.WriteMem32(0x1000, 99)
	if o.ReadReg(isa.T0) != 5 || o.ReadMem32(0x1000) != 99 {
		t.Error("overlay does not see its own writes")
	}
	if m.Regs[isa.T0] != 100 || m.Mem.Read32(0x1000) != 7 {
		t.Error("overlay leaked into base")
	}
	// Fall-through reads.
	if o.ReadReg(isa.T1) != 0 || o.ReadMem32(0x2000) != 0 {
		t.Error("overlay fall-through broken")
	}
	m.Regs[isa.T1] = 55
	if o.ReadReg(isa.T1) != 55 {
		t.Error("overlay should read base for clean registers")
	}
	if !o.Dirty() {
		t.Error("overlay should be dirty")
	}
	o.Reset()
	if o.Dirty() || o.ReadReg(isa.T0) != 100 || o.ReadMem32(0x1000) != 7 {
		t.Error("reset did not restore base view")
	}
	// $zero stays zero even through an overlay.
	o.WriteReg(isa.Zero, 9)
	if o.ReadReg(isa.Zero) != 0 {
		t.Error("overlay wrote $zero")
	}
}

// TestOverlayQuick cross-checks the overlay against a brute-force model.
func TestOverlayQuick(t *testing.T) {
	type wr struct {
		Addr uint32
		Val  byte
	}
	f := func(baseWrites, specWrites []wr, probe []uint32) bool {
		m := NewMachine()
		model := map[uint32]byte{}
		for _, w := range baseWrites {
			m.Mem.Write8(w.Addr, w.Val)
			model[w.Addr] = w.Val
		}
		o := NewOverlay(m)
		for _, w := range specWrites {
			o.WriteMem8(w.Addr, w.Val)
			model[w.Addr] = w.Val
		}
		for _, a := range probe {
			if o.ReadMem8(a) != model[a] {
				return false
			}
		}
		for _, w := range specWrites {
			if o.ReadMem8(w.Addr) != model[w.Addr] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMachineRunLimits(t *testing.T) {
	// An infinite loop must stop at the instruction budget.
	b := program.NewBuilder()
	b.Label("main")
	b.Label("loop")
	b.J("loop")
	im, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine()
	m.Load(im)
	n, err := m.Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1000 || m.Halted {
		t.Errorf("n=%d halted=%v", n, m.Halted)
	}
	// Stepping a halted machine errors.
	m2 := NewMachine()
	m2.Halted = true
	if _, _, err := m2.Step(); err == nil {
		t.Error("step after halt should error")
	}
}

func TestOverlayClone(t *testing.T) {
	m := NewMachine()
	m.Regs[isa.T0] = 1
	m.Mem.Write32(0x100, 7)

	o := NewOverlay(m)
	o.WriteReg(isa.T1, 42)
	o.WriteMem32(0x100, 8)

	c := o.Clone()
	// Clone sees the parent's speculative state...
	if c.ReadReg(isa.T1) != 42 || c.ReadMem32(0x100) != 8 {
		t.Error("clone missing parent's speculative state")
	}
	// ...and diverges independently afterwards.
	c.WriteReg(isa.T1, 99)
	c.WriteMem32(0x100, 9)
	if o.ReadReg(isa.T1) != 42 || o.ReadMem32(0x100) != 8 {
		t.Error("clone writes leaked into the original overlay")
	}
	o.WriteReg(isa.T2, 5)
	if c.ReadReg(isa.T2) != 0 {
		t.Error("post-clone original writes must not appear in the clone")
	}
	// Both still read through to clean base state.
	m.Regs[isa.T3] = 77
	if o.ReadReg(isa.T3) != 77 || c.ReadReg(isa.T3) != 77 {
		t.Error("read-through broken after clone")
	}
}

// TestDepthHistogram: the machine's call-depth histogram feeds Table 2.
func TestDepthHistogram(t *testing.T) {
	m := NewMachine()
	call := isa.Jump(isa.OpJAL, 0)
	ret := isa.Jr(isa.RA)
	// depth sequence: 1,2,3 then unwind, then 1.
	m.NoteRetired(call)
	m.NoteRetired(call)
	m.NoteRetired(call)
	m.NoteRetired(ret)
	m.NoteRetired(ret)
	m.NoteRetired(ret)
	m.NoteRetired(call)
	if m.DepthHist.Total() != 4 {
		t.Errorf("histogram total = %d, want 4", m.DepthHist.Total())
	}
	if m.DepthHist.Max() != 3 {
		t.Errorf("max depth = %d, want 3", m.DepthHist.Max())
	}
	if m.DepthHist.Count(1) != 2 {
		t.Errorf("count(1) = %d, want 2", m.DepthHist.Count(1))
	}
}
