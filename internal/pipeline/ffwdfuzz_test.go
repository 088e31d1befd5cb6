package pipeline

import (
	"reflect"
	"testing"

	"retstack/internal/asm"
	"retstack/internal/config"
	"retstack/internal/core"
	"retstack/internal/emu"
	"retstack/internal/isa"
	"retstack/internal/program"
)

// ffwdFuzzSources seed FuzzFastForwardEquivalence: a call- and
// branch-dense kernel with stack traffic and syscalls, a program that
// rewrites its own next instruction, and one whose load goes misaligned.
var ffwdFuzzSources = []string{corruptorProgram, `
    .text
main:
    la $t0, site
    lw $t1, 0($t0)
    addi $t1, $t1, 5     # bump the immediate of the addi below
    sw $t1, 0($t0)       # dirties the code region mid-block
site:
    addi $v1, $zero, 7
    jal leaf
    move $a0, $v1
    li $v0, 1
    syscall
leaf:
    addi $v1, $v1, 1
    ret
`, `
    .text
main:
    li $s0, 40
loop:
    addi $sp, $sp, -4
    sw $s0, 0($sp)
    lb $t0, 1($sp)
    addi $sp, $sp, 4
    addi $s0, $s0, -1
    bgtz $s0, loop
    lw $t0, 2($sp)       # misaligned: the step reference errors here
    li $v0, 1
    syscall
`}

// ffwdFuzzConfigs are the machines a fuzz input fast-forwards on: every
// way fast mode trains a direction predictor, and a return predictor
// without a stack.
func ffwdFuzzConfigs() []config.Config {
	spec := config.Baseline().WithPolicy(core.RepairTOSPointerAndContents)
	spec.SpecHistory = true
	gshare := config.Baseline()
	gshare.DirPred = config.DirGShare
	btbOnly := config.Baseline()
	btbOnly.ReturnPred = config.ReturnBTBOnly
	return []config.Config{config.Baseline(), spec, gshare, btbOnly}
}

// FuzzFastForwardEquivalence feeds arbitrary bytes to fast-forward as
// code — garbage that decodes to invalid instructions, stores over the
// program's own text, misaligned accesses, syscalls — once through the
// block loop and once a step at a time, on the same machine. Both must
// execute as many instructions, fail alike, and leave every counter,
// register, byte of memory, cache line and LRU stamp, BTB entry,
// predictor and return stack identical, bar the block counters that
// measure the loop itself.
func FuzzFastForwardEquivalence(f *testing.F) {
	for i, src := range ffwdFuzzSources {
		im, err := asm.Assemble(src)
		if err != nil {
			f.Fatal(err)
		}
		code, _ := im.CodeSegment()
		f.Add(code.Data, uint32(i), uint32(12345), uint32(0xFFFFFFFF), uint8(i))
	}
	f.Add([]byte{0xFF, 0xEE, 0xDD, 0xCC, 1, 2, 3, 4}, uint32(0), uint32(1), uint32(2), uint8(3))

	cfgs := ffwdFuzzConfigs()
	f.Fuzz(func(t *testing.T, code []byte, r1, r2, r3 uint32, mode uint8) {
		if len(code) < 4 {
			return
		}
		if len(code) > 4096 {
			code = code[:4096]
		}
		const budget = 4096
		cfg := cfgs[int(mode)%len(cfgs)]
		run := func(ref func(*emu.Machine)) (*Sim, uint64, string) {
			im := program.New()
			if err := im.AddSegment(program.DefaultTextBase, append([]byte(nil), code...)); err != nil {
				t.Fatal(err)
			}
			im.Entry = program.DefaultTextBase
			s, err := newWithReference(cfg, im, nil, ref)
			if err != nil {
				t.Fatal(err)
			}
			s.mach.Regs[isa.T0], s.mach.Regs[isa.T1], s.mach.Regs[isa.T2] = r1, r2, r3
			n, err := s.FastForward(budget)
			msg := ""
			if err != nil {
				msg = err.Error()
			}
			s.foldPredecodeStats()
			s.foldBlockStats()
			s.stats.BlockHits, s.stats.BlockBuilds = 0, 0
			return s, n, msg
		}
		blocks, bn, berr := run(nil)
		steps, sn, serr := run(stepDispatch)
		if bn != sn || berr != serr {
			t.Fatalf("blocks ran %d (%q), steps %d (%q)", bn, berr, sn, serr)
		}
		if d := machineDiff(blocks, steps); d != "" {
			t.Fatalf("blocks and steps differ in %s", d)
		}
		bm, sm := blocks.mach, steps.mach
		if bm.InstCount != sm.InstCount || bm.ClassCounts != sm.ClassCounts || bm.Calls != sm.Calls ||
			bm.Returns != sm.Returns || bm.MaxDepth != sm.MaxDepth || bm.SumDepth != sm.SumDepth {
			t.Fatal("instruction mix or call depth differ")
		}
		if !reflect.DeepEqual(blocks.paths[0].ras, steps.paths[0].ras) {
			t.Fatal("return stacks differ")
		}
	})
}
