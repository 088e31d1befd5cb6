package emu

import (
	"testing"

	"retstack/internal/asm"
	"retstack/internal/isa"
	"retstack/internal/program"
)

// blockWorkload is call-, branch-, and memory-dense: short and long basic
// blocks, an LCG whose parity steers a hard-to-predict early return, stack
// traffic, and both print and exit syscalls — every path the block
// dispatcher has (fast body, fast terminator, Step fallback) gets exercised.
const blockWorkload = `
    .data
seed:
    .word 12345
    .text
main:
    li $s0, 400          # iterations
    li $s1, 0            # accumulator
outer:
    jal work
    add $s1, $s1, $v0
    addi $s0, $s0, -1
    bgtz $s0, outer
    move $a0, $s1
    li $v0, 2            # print the accumulator, then exit with its low bits
    syscall
    andi $a0, $s1, 255
    li $v0, 1
    syscall
work:
    addi $sp, $sp, -4
    sw $ra, 0($sp)
    jal rand
    andi $t0, $v0, 1
    beqz $t0, work_deep
    li $v0, 1
    lw $ra, 0($sp)
    addi $sp, $sp, 4
    ret
work_deep:
    jal leaf
    add $v0, $v0, $v0
    jal leaf
    add $v0, $v0, $v0
    lw $ra, 0($sp)
    addi $sp, $sp, 4
    ret
rand:
    lw $t0, seed
    li $t1, 1103515245
    mul $t0, $t0, $t1
    addi $t0, $t0, 12345
    srl $v0, $t0, 16
    sw $t0, seed
    ret
leaf:
    li $v0, 7
    ret
`

func blockImage(t testing.TB) *program.Image {
	t.Helper()
	im, err := asm.Assemble(blockWorkload)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// loadPair returns two machines on fresh copies of the same source: one with
// block dispatch (the default), one forced through the single-step loop.
// Separate images keep the lazy block builds independent too.
func loadPair(t testing.TB, src string) (blocks, steps *Machine) {
	t.Helper()
	for _, noBlocks := range []bool{false, true} {
		im, err := asm.Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		m := NewMachine()
		m.Load(im)
		if noBlocks {
			m.DisableBlocks()
			steps = m
		} else {
			blocks = m
		}
	}
	return blocks, steps
}

// compareMachines checks every architectural and observational field that
// the block dispatcher promises to keep bit-identical to single-stepping.
func compareMachines(t *testing.T, blocks, steps *Machine) {
	t.Helper()
	if blocks.Regs != steps.Regs {
		t.Errorf("registers diverge:\nblocks: %v\nsteps:  %v", blocks.Regs, steps.Regs)
	}
	if blocks.PC != steps.PC {
		t.Errorf("PC: blocks %#x, steps %#x", blocks.PC, steps.PC)
	}
	if blocks.Halted != steps.Halted || blocks.ExitCode != steps.ExitCode {
		t.Errorf("halt state: blocks (%v, %d), steps (%v, %d)",
			blocks.Halted, blocks.ExitCode, steps.Halted, steps.ExitCode)
	}
	if blocks.Output() != steps.Output() {
		t.Errorf("output: blocks %q, steps %q", blocks.Output(), steps.Output())
	}
	if blocks.InstCount != steps.InstCount {
		t.Errorf("InstCount: blocks %d, steps %d", blocks.InstCount, steps.InstCount)
	}
	if blocks.ClassCounts != steps.ClassCounts {
		t.Errorf("ClassCounts: blocks %v, steps %v", blocks.ClassCounts, steps.ClassCounts)
	}
	if blocks.Calls != steps.Calls || blocks.Returns != steps.Returns ||
		blocks.MaxDepth != steps.MaxDepth || blocks.SumDepth != steps.SumDepth {
		t.Errorf("depth stats: blocks (%d %d %d %d), steps (%d %d %d %d)",
			blocks.Calls, blocks.Returns, blocks.MaxDepth, blocks.SumDepth,
			steps.Calls, steps.Returns, steps.MaxDepth, steps.SumDepth)
	}
	if blocks.PredecodeHits != steps.PredecodeHits ||
		blocks.PredecodeFallbacks != steps.PredecodeFallbacks {
		t.Errorf("predecode counters: blocks (%d, %d), steps (%d, %d)",
			blocks.PredecodeHits, blocks.PredecodeFallbacks,
			steps.PredecodeHits, steps.PredecodeFallbacks)
	}
	if bi, si := blocks.Mem.CodeInvalidations(), steps.Mem.CodeInvalidations(); bi != si {
		t.Errorf("code invalidations: blocks %d, steps %d", bi, si)
	}
}

func TestRunBlocksMatchesSteps(t *testing.T) {
	blocks, steps := loadPair(t, blockWorkload)
	if _, err := blocks.Run(0); err != nil {
		t.Fatal(err)
	}
	if _, err := steps.Run(0); err != nil {
		t.Fatal(err)
	}
	if !blocks.Halted {
		t.Fatal("workload did not halt")
	}
	if blocks.BlockHits == 0 || blocks.BlockBuilds == 0 {
		t.Fatalf("block dispatch did not engage: hits=%d builds=%d",
			blocks.BlockHits, blocks.BlockBuilds)
	}
	if steps.BlockHits != 0 || steps.BlockBuilds != 0 {
		t.Fatalf("DisableBlocks machine dispatched blocks: hits=%d builds=%d",
			steps.BlockHits, steps.BlockBuilds)
	}
	compareMachines(t, blocks, steps)
}

// TestRunBlocksChunkedBudget drives the block machine with awkward odd
// budgets so Run stops mid-body and resumes at a block suffix, while the
// reference machine runs in one shot. Every budget boundary must be exact.
func TestRunBlocksChunkedBudget(t *testing.T) {
	blocks, steps := loadPair(t, blockWorkload)
	if _, err := steps.Run(0); err != nil {
		t.Fatal(err)
	}
	chunks := []uint64{1, 2, 3, 5, 7, 11, 13, 1, 4, 9}
	var total uint64
	for i := 0; !blocks.Halted; i++ {
		want := chunks[i%len(chunks)]
		n, err := blocks.Run(want)
		if err != nil {
			t.Fatal(err)
		}
		if n > want {
			t.Fatalf("Run(%d) executed %d instructions", want, n)
		}
		if n < want && !blocks.Halted {
			t.Fatalf("Run(%d) stopped early (%d) without halting", want, n)
		}
		total += n
	}
	if total != blocks.InstCount {
		t.Errorf("sum of chunk returns %d != InstCount %d", total, blocks.InstCount)
	}
	compareMachines(t, blocks, steps)
}

// selfModifyingSource patches an addi in its own text from inside the same
// basic block as the store, so a stale descriptor would retire the old
// immediate. Both dispatch modes must see the patched instruction and
// count exactly one code-region invalidation.
const selfModifyingSource = `
    .text
main:
    la $t0, site
    lw $t1, newinst
    sw $t1, 0($t0)       # dirties the code region mid-block
site:
    addi $v1, $zero, 7   # overwritten above with addi $v1, $zero, 42
    move $a0, $v1
    li $v0, 1
    syscall
newinst:
    .word 0x00000000     # patched in by TestBlocksSelfModifyingCode
`

func TestBlocksSelfModifyingCode(t *testing.T) {
	patch, err := isa.I(isa.OpADDI, isa.V1, isa.Zero, 42).Encode()
	if err != nil {
		t.Fatal(err)
	}
	run := func(noBlocks bool) *Machine {
		im, err := asm.Assemble(selfModifyingSource)
		if err != nil {
			t.Fatal(err)
		}
		m := NewMachine()
		m.Load(im)
		if noBlocks {
			m.DisableBlocks()
		}
		// Plant the replacement word in the text segment's literal pool.
		addr, ok := im.Symbol("newinst")
		if !ok {
			t.Fatal("newinst symbol missing")
		}
		m.Mem.Write32(addr, patch)
		if _, err := m.Run(0); err != nil {
			t.Fatal(err)
		}
		return m
	}
	blocks, steps := run(false), run(true)
	for name, m := range map[string]*Machine{"blocks": blocks, "steps": steps} {
		if !m.Halted || m.ExitCode != 42 {
			t.Errorf("%s: exit = (%v, %d), want (true, 42) — stale instruction retired",
				name, m.Halted, m.ExitCode)
		}
	}
	compareMachines(t, blocks, steps)
	// Planting the patch word itself already dirties the code region (one
	// invalidation before Run); the in-program store then hits an
	// already-dirty region, so the count stays 1.
	if got := blocks.Mem.CodeInvalidations(); got != 1 {
		t.Errorf("CodeInvalidations = %d, want 1", got)
	}
}

// TestBlockBuildsDeterministic pins the property that made BlockBuilds a
// per-machine counter: two machines sharing one image (and hence one lazily
// built block table) must report identical builds, regardless of which of
// them populated the shared table first.
func TestBlockBuildsDeterministic(t *testing.T) {
	im := blockImage(t)
	counts := make([]uint64, 2)
	for i := range counts {
		m := NewMachine()
		m.Load(im)
		if _, err := m.Run(0); err != nil {
			t.Fatal(err)
		}
		counts[i] = m.BlockBuilds
	}
	if counts[0] != counts[1] {
		t.Errorf("BlockBuilds diverge across machines on a shared image: %d vs %d",
			counts[0], counts[1])
	}
	if counts[0] == 0 {
		t.Error("BlockBuilds = 0 on a block-dispatching run")
	}
}

// spinSource never halts and never calls: the steady-state block loop.
const spinSource = `
    .data
cell:
    .word 1
    .text
main:
    lw $t0, cell
    addi $t0, $t0, 3
    mul $t1, $t0, $t0
    sw $t0, cell
    srl $t2, $t1, 4
    j main
`

// TestFetchBlockInstsMatchesFetchInstClass: at every PC the block table
// serves, the batched fetch of the whole body equals FetchInstClass called
// once per instruction, and advances the predecode counters the same way.
func TestFetchBlockInstsMatchesFetchInstClass(t *testing.T) {
	im := blockImage(t)
	seg, _ := im.CodeSegment()
	batch, single := NewMachine(), NewMachine()
	batch.Load(im)
	single.Load(im)
	served := 0
	for pc := seg.Addr; pc < seg.End(); pc += isa.WordBytes {
		n := batch.FetchBlockBody(pc)
		if n == 0 {
			continue
		}
		served++
		insts, classes := batch.FetchBlockInsts(pc, n)
		if len(insts) != n || len(classes) != n {
			t.Fatalf("pc %#x: got %d/%d slots, want %d", pc, len(insts), len(classes), n)
		}
		for i := range insts {
			in, cl := single.FetchInstClass(pc + uint32(i)*isa.WordBytes)
			if insts[i] != in || classes[i] != cl {
				t.Fatalf("pc %#x slot %d: batched %+v/%v, single %+v/%v", pc, i, insts[i], classes[i], in, cl)
			}
		}
	}
	if served == 0 {
		t.Fatal("no block bodies served; the test is vacuous")
	}
	if batch.PredecodeHits != single.PredecodeHits || batch.PredecodeFallbacks != single.PredecodeFallbacks {
		t.Fatalf("predecode counters: batched %d/%d, single %d/%d", batch.PredecodeHits,
			batch.PredecodeFallbacks, single.PredecodeHits, single.PredecodeFallbacks)
	}
}

// TestRunBlocksZeroAlloc pins the acceptance criterion that steady-state
// block dispatch allocates nothing: descriptors build once, then Run is
// pure table walking.
func TestRunBlocksZeroAlloc(t *testing.T) {
	im, err := asm.Assemble(spinSource)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine()
	m.Load(im)
	if _, err := m.Run(10_000); err != nil { // warm: builds blocks, maps pages
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := m.Run(10_000); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("steady-state Run allocates %.1f objects per call, want 0", avg)
	}
}

// FuzzBlockEquivalence feeds arbitrary bytes to both dispatch modes as code
// — including garbage that decodes to invalid instructions, accidental
// stores over the program's own text, and misaligned accesses — and demands
// bit-identical state, output, counters, errors, and memory.
func FuzzBlockEquivalence(f *testing.F) {
	seed := func(src string) []byte {
		im, err := asm.Assemble(src)
		if err != nil {
			f.Fatal(err)
		}
		code, ok := im.CodeSegment()
		if !ok {
			f.Fatal("no code segment")
		}
		return code.Data
	}
	f.Add(seed(blockWorkload), uint32(1), uint32(2), uint32(3))
	f.Add(seed(selfModifyingSource), uint32(12345), uint32(0), uint32(0xFFFFFFFF))
	f.Add(seed(spinSource), uint32(7), uint32(0x80000000), uint32(3))
	f.Add([]byte{0xFF, 0xEE, 0xDD, 0xCC, 1, 2, 3, 4}, uint32(0), uint32(1), uint32(2))

	f.Fuzz(func(t *testing.T, code []byte, r1, r2, r3 uint32) {
		if len(code) < 4 {
			return
		}
		if len(code) > 4096 {
			code = code[:4096]
		}
		const budget = 4096
		run := func(noBlocks bool) (*Machine, uint64, string) {
			im := program.New()
			if err := im.AddSegment(program.DefaultTextBase, append([]byte(nil), code...)); err != nil {
				t.Fatal(err)
			}
			im.Entry = program.DefaultTextBase
			m := NewMachine()
			m.Load(im)
			if noBlocks {
				m.DisableBlocks()
			}
			m.Regs[isa.T0], m.Regs[isa.T1], m.Regs[isa.T2] = r1, r2, r3
			n, err := m.Run(budget)
			msg := ""
			if err != nil {
				msg = err.Error()
			}
			return m, n, msg
		}
		blocks, bn, berr := run(false)
		steps, sn, serr := run(true)
		if bn != sn {
			t.Errorf("executed count: blocks %d, steps %d", bn, sn)
		}
		if berr != serr {
			t.Errorf("errors diverge:\nblocks: %s\nsteps:  %s", berr, serr)
		}
		compareMachines(t, blocks, steps)
		// The code region itself (self-modifying stores must land the same).
		for off := uint32(0); off+4 <= uint32(len(code)); off += 4 {
			addr := program.DefaultTextBase + off
			if bw, sw := blocks.Mem.Read32(addr), steps.Mem.Read32(addr); bw != sw {
				t.Fatalf("code word at %#x: blocks %#08x, steps %#08x", addr, bw, sw)
			}
		}
		// Stack and globals windows, where stray stores most often land.
		for i := uint32(0); i < 64; i++ {
			lo, hi := program.DefaultGPBase+4*i, program.DefaultStackTop-4-4*i
			if bw, sw := blocks.Mem.Read32(lo), steps.Mem.Read32(lo); bw != sw {
				t.Fatalf("data word at %#x: blocks %#08x, steps %#08x", lo, bw, sw)
			}
			if bw, sw := blocks.Mem.Read32(hi), steps.Mem.Read32(hi); bw != sw {
				t.Fatalf("stack word at %#x: blocks %#08x, steps %#08x", hi, bw, sw)
			}
		}
	})
}

// emuBenchProgram has long straight-line bodies (unrolled LCG plus memory
// traffic) between calls and branches — representative of the functional
// workloads, and the shape block dispatch is built for.
const emuBenchProgram = `
    .data
seed:
    .word 12345
buf:
    .space 256
    .text
main:
    li $s0, 1000000
outer:
    jal mix
    jal mix
    addi $s0, $s0, -1
    bgtz $s0, outer
    li $a0, 0
    li $v0, 1
    syscall
mix:
    lw $t0, seed
    li $t1, 1103515245
    mul $t0, $t0, $t1
    addi $t0, $t0, 12345
    mul $t0, $t0, $t1
    addi $t0, $t0, 12345
    mul $t0, $t0, $t1
    addi $t0, $t0, 12345
    sw $t0, seed
    la $t3, buf
    andi $t2, $t0, 252
    add $t3, $t3, $t2
    lw $t4, 0($t3)
    add $t4, $t4, $t0
    sw $t4, 0($t3)
    srl $v0, $t0, 16
    ret
`

// benchEmuRun measures functional emulation throughput over a fixed
// instruction budget, one fresh machine per iteration (so per-run block
// builds are included), after one untimed warmup run.
func benchEmuRun(b *testing.B, noBlocks bool) {
	im, err := asm.Assemble(emuBenchProgram)
	if err != nil {
		b.Fatal(err)
	}
	const budget = 200_000
	runOnce := func() uint64 {
		m := NewMachine()
		m.Load(im)
		if noBlocks {
			m.DisableBlocks()
		}
		n, err := m.Run(budget)
		if err != nil {
			b.Fatal(err)
		}
		return n
	}
	runOnce() // untimed warmup: faults in the image and the shared block table
	b.ReportAllocs()
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		insts += runOnce()
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "simInsts/s")
}

func BenchmarkEmuRunBlocks(b *testing.B)   { benchEmuRun(b, false) }
func BenchmarkEmuRunNoBlocks(b *testing.B) { benchEmuRun(b, true) }

// transferRecorder is a Warmer that keeps the last transfer it is told
// about.
type transferRecorder struct{ last Transfer }

func (*transferRecorder) FetchLine(uint32)                {}
func (*transferRecorder) Access(uint32, bool)             {}
func (r *transferRecorder) Transfer(_ uint32, t Transfer) { r.last = t }

// stepTerminator runs the block loop over the one instruction at m.PC and
// returns the transfer it reported to its warmer, and whether it ran the
// instruction.
func stepTerminator(m *Machine) (Transfer, bool) {
	var r transferRecorder
	if m.runBlocks(1, &warming{Warmer: &r, mask: 63, line: noLine}) == 0 {
		return Transfer{}, false
	}
	return r.last, true
}

// TestStepTerminatorMatchesExec holds the block loop's terminator step —
// the one Run and pipeline fast-forward share — to Step, and so to Exec's
// Outcome: every control opcode, taken and not taken, must report the
// class, taken flag and target Exec does, land on the same next PC, and
// leave the same registers and counters. Forms the loop does not serve
// must stop it with no side effect, for the caller's Step.
func TestStepTerminatorMatchesExec(t *testing.T) {
	const (
		text = program.DefaultTextBase
		far  = program.DefaultTextBase + 0x100
	)
	cases := []struct {
		name   string
		in     isa.Inst
		t0, t1 uint32
		taken  bool
	}{
		{"beq taken", isa.Branch(isa.OpBEQ, isa.T0, isa.T1, 5), 7, 7, true},
		{"beq not taken", isa.Branch(isa.OpBEQ, isa.T0, isa.T1, 5), 7, 8, false},
		// Taken, yet the target is the fall-through PC: the taken flag
		// must come from the condition, not from the next PC.
		{"beq zero offset", isa.Branch(isa.OpBEQ, isa.T0, isa.T1, 0), 3, 3, true},
		{"beq $zero, $zero", isa.Branch(isa.OpBEQ, isa.Zero, isa.Zero, -2), 0, 0, true},
		{"bne taken", isa.Branch(isa.OpBNE, isa.T0, isa.T1, -4), 7, 8, true},
		{"bne not taken", isa.Branch(isa.OpBNE, isa.T0, isa.T1, -4), 7, 7, false},
		{"blez taken at zero", isa.Branch(isa.OpBLEZ, isa.T0, 0, 9), 0, 0, true},
		{"blez taken negative", isa.Branch(isa.OpBLEZ, isa.T0, 0, 9), 0xFFFFFFFF, 0, true},
		{"blez not taken", isa.Branch(isa.OpBLEZ, isa.T0, 0, 9), 1, 0, false},
		{"bgtz taken", isa.Branch(isa.OpBGTZ, isa.T0, 0, 2), 1, 0, true},
		{"bgtz not taken", isa.Branch(isa.OpBGTZ, isa.T0, 0, 2), 0x80000000, 0, false},
		{"bltz taken", isa.Branch(isa.OpBLTZ, isa.T0, 0, 2), 0x80000000, 0, true},
		{"bltz not taken", isa.Branch(isa.OpBLTZ, isa.T0, 0, 2), 0, 0, false},
		{"bgez taken", isa.Branch(isa.OpBGEZ, isa.T0, 0, 2), 0, 0, true},
		{"bgez not taken", isa.Branch(isa.OpBGEZ, isa.T0, 0, 2), 0xFFFFFFFF, 0, false},
		{"j", isa.Jump(isa.OpJ, far), 0, 0, true},
		{"jal", isa.Jump(isa.OpJAL, far), 0, 0, true},
		{"jr ra (return)", isa.Jr(isa.RA), 0, 0, true},
		{"jr t0 (indirect)", isa.Jr(isa.T0), far, 0, true},
		{"jalr ra, t0", isa.Jalr(isa.RA, isa.T0), far, 0, true},
		{"jalr t0, t0", isa.Jalr(isa.T0, isa.T0), far, 0, true},
		{"jalr $zero, t0", isa.Jalr(isa.Zero, isa.T0), far, 0, true},
	}
	load := func(t *testing.T, in isa.Inst, t0, t1 uint32) *Machine {
		t.Helper()
		b := program.NewBuilder()
		b.Label("main")
		b.Emit(in)
		im, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		m := NewMachine()
		m.Load(im)
		m.Regs[isa.T0], m.Regs[isa.T1], m.Regs[isa.RA] = t0, t1, far+8
		m.Regs[isa.V0], m.Regs[isa.A0] = uint32(SysPutInt), 42
		return m
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fast, ref := load(t, c.in, c.t0, c.t1), load(t, c.in, c.t0, c.t1)
			got, ok := stepTerminator(fast)
			if !ok {
				t.Fatal("the block loop refused a plain control transfer")
			}
			in, out, err := ref.Step()
			if err != nil {
				t.Fatal(err)
			}
			if out.Taken != c.taken {
				t.Fatalf("Exec: taken %v, want %v", out.Taken, c.taken)
			}
			want := Transfer{Class: in.Class(), Taken: out.Taken, Target: out.Target}
			if got != want {
				t.Errorf("transfer %+v, Exec says %+v", got, want)
			}
			if fast.PC != out.NextPC {
				t.Errorf("next PC %#x, Exec says %#x", fast.PC, out.NextPC)
			}
			if c.name == "beq zero offset" && got.Target != text+isa.WordBytes {
				t.Errorf("zero-offset target %#x, want %#x", got.Target, text+isa.WordBytes)
			}
			compareMachines(t, fast, ref)
		})
	}

	// Not served: a syscall terminator (it may print or halt), a body
	// instruction, any instruction once blocks are disabled, and anything
	// after the program halted.
	refused := []struct {
		name  string
		in    isa.Inst
		setup func(*Machine)
	}{
		{"syscall", isa.Syscall(), nil},
		{"add", isa.R(isa.OpADD, isa.T2, isa.T0, isa.T1), nil},
		{"blocks disabled", isa.Jr(isa.RA), (*Machine).DisableBlocks},
		{"halted", isa.Jr(isa.RA), func(m *Machine) { m.Halted = true }},
	}
	for _, c := range refused {
		t.Run(c.name, func(t *testing.T) {
			m, pristine := load(t, c.in, 1, 2), load(t, c.in, 1, 2)
			if c.setup != nil {
				c.setup(m)
				c.setup(pristine)
			}
			if got, ok := stepTerminator(m); ok || got != (Transfer{}) {
				t.Fatalf("the block loop served it: %+v, %v", got, ok)
			}
			compareMachines(t, m, pristine)
		})
	}
}
