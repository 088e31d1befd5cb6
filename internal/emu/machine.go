package emu

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"

	"retstack/internal/isa"
	"retstack/internal/program"
	"retstack/internal/stats"
)

// Machine is the architectural machine: register file, memory, PC, and the
// minimal OS (output buffer, exit status). It implements State, so Exec can
// run against it directly, and it is the retirement oracle for the
// cycle-level pipeline.
type Machine struct {
	Regs [isa.NumRegs]uint32
	PC   uint32
	Mem  *Memory

	Halted   bool
	ExitCode int32
	output   bytes.Buffer

	InstCount uint64
	// ClassCounts tallies retired instructions by class (for Table 2).
	ClassCounts [16]uint64

	// plane is the loaded image's predecode plane (nil when the image has
	// no code segment, or in a test that disabled it); FetchInst serves
	// from it.
	plane *program.Plane
	// PredecodeHits / PredecodeFallbacks count FetchInst calls served from
	// the plane vs. decoded from memory (plane off, PC outside the code
	// segment, or code region dirtied by a store).
	PredecodeHits      uint64
	PredecodeFallbacks uint64

	// noBlocks disables basic-block dispatch (DisableBlocks, a test
	// reference; see block.go). BlockHits counts block dispatches served
	// from the plane's block table; BlockBuilds counts distinct block
	// entry points this machine dispatched for the first time — the
	// descriptor builds it would perform with a private table. The actual lazy build runs at most
	// once per block on the shared plane, so counting real builds would
	// depend on which machine touched a shared image first; the per-machine
	// first-entry count (tracked in blockSeen) is deterministic. Purely
	// observational, like the predecode counters.
	noBlocks    bool
	BlockHits   uint64
	BlockBuilds uint64
	blockSeen   []uint64 // bitmap over plane slots: block entries dispatched

	// Call-depth tracking for workload characterization.
	depth     int
	MaxDepth  int
	SumDepth  uint64 // sum of depth over retired calls, for mean depth
	Calls     uint64
	Returns   uint64
	DepthHist *stats.Histogram // depth observed at each call
}

// NewMachine returns a machine with zeroed state and empty memory.
func NewMachine() *Machine {
	return &Machine{Mem: NewMemory(), DepthHist: stats.NewHistogram()}
}

// Load maps an image into memory and initializes PC, $sp and $gp. The
// code segment is installed as the memory's flat code region — aliasing
// the image's bytes, shared read-only with every other machine loading
// the same image (copy-on-write protects the image from self-modifying
// stores) — and the image's predecode plane is attached for FetchInst.
// Data segments are copied into the page map as before.
func (m *Machine) Load(im *program.Image) {
	code, hasCode := im.CodeSegment()
	for _, seg := range im.Segments {
		if hasCode && seg.Addr == code.Addr {
			m.Mem.SetCodeRegion(seg.Addr, seg.Data)
			continue
		}
		m.Mem.WriteBytes(seg.Addr, seg.Data)
	}
	m.plane = nil
	if hasCode {
		m.plane = im.Predecode()
	}
	if m.plane != nil {
		m.blockSeen = make([]uint64, (m.plane.Len()+63)/64)
	}
	m.PC = im.Entry
	m.Regs[isa.SP] = program.DefaultStackTop
	m.Regs[isa.GP] = program.DefaultGPBase
}

// Clone returns an independent copy of the machine: registers, memory,
// output, and every counter. Data pages are copied outright; the code
// region stays shared with the image copy-on-write, as Load leaves it, or
// is copied when a store has already made it private. The predecode plane
// is shared read-only. The pipeline starts each warm cell from a clone of
// one fast-forwarded machine.
func (m *Machine) Clone() *Machine {
	c := *m
	c.Mem = m.Mem.clone()
	c.output = bytes.Buffer{}
	c.output.Write(m.output.Bytes())
	c.blockSeen = slices.Clone(m.blockSeen)
	c.DepthHist = m.DepthHist.Clone()
	return &c
}

// DisablePredecode detaches the predecode plane, forcing every FetchInst
// through Read32+Decode — the path self-modifying code and fetch outside
// the code segment take anyway. Production never calls it: it is the
// reference the determinism tests hold the plane against.
func (m *Machine) DisablePredecode() { m.plane = nil }

// ReadReg implements State.
func (m *Machine) ReadReg(r int) uint32 {
	if r == isa.Zero {
		return 0
	}
	return m.Regs[r]
}

// WriteReg implements State.
func (m *Machine) WriteReg(r int, v uint32) {
	if r != isa.Zero {
		m.Regs[r] = v
	}
}

// ReadMem8 implements State.
func (m *Machine) ReadMem8(addr uint32) byte { return m.Mem.Read8(addr) }

// WriteMem8 implements State.
func (m *Machine) WriteMem8(addr uint32, v byte) { m.Mem.Write8(addr, v) }

// ReadMem16 implements State.
func (m *Machine) ReadMem16(addr uint32) uint16 { return m.Mem.Read16(addr) }

// WriteMem16 implements State.
func (m *Machine) WriteMem16(addr uint32, v uint16) { m.Mem.Write16(addr, v) }

// ReadMem32 implements State.
func (m *Machine) ReadMem32(addr uint32) uint32 { return m.Mem.Read32(addr) }

// WriteMem32 implements State.
func (m *Machine) WriteMem32(addr uint32, v uint32) { m.Mem.Write32(addr, v) }

// FetchWord returns the instruction word at addr.
func (m *Machine) FetchWord(addr uint32) uint32 { return m.Mem.Read32(addr) }

// FetchInst returns the decoded instruction at pc. It is served from the
// image's predecode plane when possible — one bounds-checked table load —
// and falls back to FetchWord+Decode when the plane is absent, pc lies
// outside the predecoded code segment (e.g. wrong-path fetch running into
// data), or a store has dirtied the code region. The fallback decodes the
// same bytes the plane was built from, so the result is identical either
// way; only the cost differs.
func (m *Machine) FetchInst(pc uint32) isa.Inst {
	if m.plane != nil && !m.Mem.codeDirty {
		if in, ok := m.plane.Lookup(pc); ok {
			m.PredecodeHits++
			return in
		}
	}
	m.PredecodeFallbacks++
	return isa.Decode(m.Mem.Read32(pc))
}

// FetchInstClass is FetchInst plus the instruction's class, served from the
// plane's precomputed class table on a hit so fetch classifies in two table
// loads instead of re-deriving the class per instruction.
func (m *Machine) FetchInstClass(pc uint32) (isa.Inst, isa.Class) {
	if m.plane != nil && !m.Mem.codeDirty {
		if in, cl, ok := m.plane.LookupClass(pc); ok {
			m.PredecodeHits++
			return in, cl
		}
	}
	m.PredecodeFallbacks++
	in := isa.Decode(m.Mem.Read32(pc))
	return in, in.Class()
}

// ApplySyscall performs the architectural side effects of a syscall
// outcome. It is exported so the pipeline can apply syscalls at the point
// its model treats as architectural.
func (m *Machine) ApplySyscall(out Outcome) {
	switch out.Syscall {
	case SysExit:
		m.Halted = true
		m.ExitCode = int32(out.SyscallArg)
	case SysPutInt:
		m.output.WriteString(strconv.FormatInt(int64(int32(out.SyscallArg)), 10))
		m.output.WriteByte('\n')
	case SysPutChar:
		m.output.WriteByte(byte(out.SyscallArg))
	}
}

// NoteRetired updates instruction-mix and call-depth statistics for one
// retired instruction.
func (m *Machine) NoteRetired(in isa.Inst) {
	m.NoteRetiredClass(in.Class())
}

// NoteRetiredClass is NoteRetired for callers that already know the
// instruction's class (the pipeline carries it from fetch), skipping the
// per-retire reclassification.
func (m *Machine) NoteRetiredClass(c isa.Class) {
	m.InstCount++
	m.ClassCounts[c]++
	switch {
	case c.IsCall():
		m.Calls++
		m.depth++
		if m.depth > m.MaxDepth {
			m.MaxDepth = m.depth
		}
		m.SumDepth += uint64(m.depth)
		m.DepthHist.Add(m.depth)
	case c == isa.ClassReturn:
		m.Returns++
		if m.depth > 0 {
			m.depth--
		}
	}
}

// Step executes exactly one instruction, applying all architectural side
// effects, and returns the decoded instruction and its outcome.
func (m *Machine) Step() (isa.Inst, Outcome, error) {
	if m.Halted {
		return isa.Inst{}, Outcome{}, fmt.Errorf("emu: step after halt")
	}
	in := m.FetchInst(m.PC)
	out, err := Exec(m, m.PC, in)
	if err != nil {
		return in, out, fmt.Errorf("emu: at pc=%#x (%s): %w", m.PC, in.Disasm(m.PC), err)
	}
	if out.Syscall != SysNone {
		m.ApplySyscall(out)
	}
	m.NoteRetired(in)
	m.PC = out.NextPC
	return in, out, nil
}

// Run executes until halt or until maxInsts instructions have retired
// (maxInsts <= 0 means unbounded). It returns the number of instructions
// executed by this call. With a predecode plane attached (and blocks not
// disabled) it dispatches basic blocks through the block loop in
// block.go; otherwise it is the classic one-Step-per-instruction loop.
// The two produce bit-identical architectural state, output, and errors.
func (m *Machine) Run(maxInsts uint64) (uint64, error) {
	if maxInsts == 0 {
		maxInsts = math.MaxUint64
	}
	return m.run(maxInsts, nil)
}

// RunWarm is Run for fast mode: it executes up to budget instructions
// (none for 0) exactly as Run does, telling w about each instruction's
// fetch, with I-cache lines of lineBytes (a power of two, 2 or more),
// its data access and its control transfer, in program order.
func (m *Machine) RunWarm(budget uint64, w Warmer, lineBytes uint32) (uint64, error) {
	return m.run(budget, &warming{Warmer: w, mask: lineBytes - 1, line: noLine})
}

// Output returns everything the program printed.
func (m *Machine) Output() string { return m.output.String() }
