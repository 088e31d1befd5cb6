package pipeline

import (
	"reflect"
	"testing"

	"retstack/internal/config"
	"retstack/internal/core"
	"retstack/internal/faultinject"
)

// captureTracer keeps every event (tests only; allocates).
type captureTracer struct {
	events []TraceEvent
}

func (c *captureTracer) Event(e TraceEvent) { c.events = append(c.events, e) }

// runAttrib runs im under cfg with an attributor installed and returns
// the finished sim plus the attributor.
func runAttrib(t *testing.T, cfg config.Config, src string, every, seed uint64) (*Sim, *Attributor) {
	t.Helper()
	im := mustAssemble(t, src)
	s, err := New(cfg, im)
	if err != nil {
		t.Fatalf("new sim: %v", err)
	}
	a := NewAttributor(cfg.RASEntries, 0, nil)
	s.SetTracer(a)
	if every > 0 {
		s.SetDisturber(every, faultinject.Addr(seed))
	}
	if err := s.Run(5_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	a.Finish()
	return s, a
}

// TestTraceDoesNotPerturb pins the tentpole inertness property from the
// simulation side: attaching a full attribution tracer (ring, mirrors,
// stage stamps) changes nothing about the simulated run — identical
// stats, identical architectural output, identical cycle count.
func TestTraceDoesNotPerturb(t *testing.T) {
	for _, pol := range []core.RepairPolicy{core.RepairNone, core.RepairTOSPointerAndContents} {
		cfg := config.Baseline().WithPolicy(pol)
		plain := runSim(t, cfg, mustAssemble(t, corruptorProgram))
		traced, a := runAttrib(t, cfg, corruptorProgram, 0, 0)
		if !reflect.DeepEqual(plain.Stats(), traced.Stats()) {
			t.Errorf("%v: tracing perturbed the stats:\nplain:  %+v\ntraced: %+v",
				pol, plain.Stats(), traced.Stats())
		}
		if plain.Machine().Output() != traced.Machine().Output() {
			t.Errorf("%v: tracing perturbed architectural output", pol)
		}
		if a.Stats().Events == 0 {
			t.Fatalf("%v: attributor saw no events; the pin is vacuous", pol)
		}
	}
}

// TestAttributionReconciles is the acceptance invariant: every committed
// return misprediction is attributed to exactly one cause, so the cause
// totals equal Returns-ReturnsCorrect — across repair policies, under
// injected corruption, under overflow, and without a RAS at all.
func TestAttributionReconciles(t *testing.T) {
	check := func(name string, s *Sim, a *Attributor) {
		t.Helper()
		st := s.Stats()
		want := st.Returns - st.ReturnsCorrect
		as := a.Stats()
		if as.Attributed != want {
			t.Errorf("%s: attributed %d mispredictions, stats say %d (returns=%d correct=%d)",
				name, as.Attributed, want, st.Returns, st.ReturnsCorrect)
		}
		var sum uint64
		for _, c := range as.Causes {
			sum += c
		}
		if sum != as.Attributed {
			t.Errorf("%s: cause sum %d != attributed %d", name, sum, as.Attributed)
		}
	}

	for _, pol := range core.Policies() {
		s, a := runAttrib(t, config.Baseline().WithPolicy(pol), corruptorProgram, 0, 0)
		check(pol.String(), s, a)
		if pol == core.RepairNone && a.Stats().Attributed == 0 {
			t.Fatal("no-repair corruptor run produced no mispredicted returns; tests are vacuous")
		}
	}

	// Injected corruption.
	s, a := runAttrib(t, config.Baseline().WithPolicy(core.RepairNone), fibProgram, 200, 42)
	check("disturbed", s, a)

	// Overflowing 8-entry stack under deep recursion.
	s, a = runAttrib(t, config.Baseline().WithPolicy(core.RepairTOSPointerAndContents).WithRASEntries(8),
		deepRecursionProgram, 0, 0)
	check("overflow", s, a)

	// No RAS at all: everything must land in no-ras.
	cfg := config.Baseline()
	cfg.ReturnPred = config.ReturnBTBOnly
	cfg.RASEntries = 0
	s, a = runAttrib(t, cfg, fibProgram, 0, 0)
	check("btb-only", s, a)
	as := a.Stats()
	if as.Attributed == 0 {
		t.Fatal("btb-only fib produced no mispredicted returns")
	}
	if as.Causes[CauseNoRAS] != as.Attributed {
		t.Errorf("btb-only: want all %d attributions in no-ras, got %d",
			as.Attributed, as.Causes[CauseNoRAS])
	}
}

// deepRecursionProgram: depth-90 mutual recursion through a 3-cycle, so
// an 8-entry wrapping stack loses most deep returns (period-3 return
// addresses cannot stay aligned after a wrap).
const deepRecursionProgram = `
main:
    li $a0, 90
    jal down1
    move $a0, $v0
    li $v0, 2
    syscall
` + exitSeq + `
down1:
    blez $a0, base
    addi $sp, $sp, -4
    sw $ra, 0($sp)
    addi $a0, $a0, -1
    jal down2
    addi $v0, $v0, 1
    lw $ra, 0($sp)
    addi $sp, $sp, 4
    ret
down2:
    blez $a0, base
    addi $sp, $sp, -4
    sw $ra, 0($sp)
    addi $a0, $a0, -1
    jal down3
    addi $v0, $v0, 2
    lw $ra, 0($sp)
    addi $sp, $sp, 4
    ret
down3:
    blez $a0, base
    addi $sp, $sp, -4
    sw $ra, 0($sp)
    addi $a0, $a0, -1
    jal down1
    addi $v0, $v0, 3
    lw $ra, 0($sp)
    addi $sp, $sp, 4
    ret
base:
    li $v0, 0
    ret
`

// TestAttributionCauses checks that each engineered corruption scenario
// is attributed to the matching cause family.
func TestAttributionCauses(t *testing.T) {
	// The corruptor workload with no repair: wrong-path pops and pushes
	// are the paper's canonical damage and must dominate.
	_, a := runAttrib(t, config.Baseline().WithPolicy(core.RepairNone), corruptorProgram, 0, 0)
	as := a.Stats()
	wp := as.Causes[CauseWrongPathPop] + as.Causes[CauseWrongPathPush]
	if wp == 0 {
		t.Errorf("no-repair corruptor: no wrong-path attributions at all: %+v", as.Causes)
	}
	if 2*wp < as.Attributed {
		t.Errorf("no-repair corruptor: wrong-path causes %d of %d, want majority (%+v)",
			wp, as.Attributed, as.Causes)
	}

	// Deep recursion over a tiny stack: overflow wraps must appear.
	_, a = runAttrib(t, config.Baseline().WithPolicy(core.RepairTOSPointerAndContents).WithRASEntries(8),
		deepRecursionProgram, 0, 0)
	as = a.Stats()
	if as.Causes[CauseOverflowWrap] == 0 {
		t.Errorf("deep recursion on 8 entries: no overflow-wrap attributions: %+v", as.Causes)
	}
	if 2*as.Causes[CauseOverflowWrap] < as.Attributed {
		t.Errorf("deep recursion: overflow-wrap %d of %d, want majority (%+v)",
			as.Causes[CauseOverflowWrap], as.Attributed, as.Causes)
	}

	// Injected corruption with no repair: corruption must be visible.
	_, a = runAttrib(t, config.Baseline().WithPolicy(core.RepairNone), fibProgram, 200, 42)
	as = a.Stats()
	if as.Causes[CauseCorruption] == 0 {
		t.Errorf("disturbed run: no corruption attributions: %+v", as.Causes)
	}
}

// TestAttribEventStream checks the synthesized verdict events: one
// TraceAttrib per attribution, carrying the cause and — when the causal
// window still holds the corrupting event — its PC.
func TestAttribEventStream(t *testing.T) {
	im := mustAssemble(t, corruptorProgram)
	s, err := New(config.Baseline().WithPolicy(core.RepairNone), im)
	if err != nil {
		t.Fatal(err)
	}
	sink := &captureTracer{}
	a := NewAttributor(32, 0, sink)
	s.SetTracer(a)
	if err := s.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	a.Finish()

	var attribs, withPC int
	counts := [NumAttribCauses]uint64{}
	for _, e := range sink.events {
		if e.Kind != TraceAttrib {
			continue
		}
		attribs++
		if int(e.Extra) >= NumAttribCauses {
			t.Fatalf("attrib event with cause %d out of range", e.Extra)
		}
		counts[e.Extra]++
		if e.Aux != 0 {
			withPC++
		}
	}
	as := a.Stats()
	if uint64(attribs) != as.Attributed {
		t.Errorf("sink saw %d attrib events, stats say %d", attribs, as.Attributed)
	}
	if counts != as.Causes {
		t.Errorf("per-event cause counts %v != stats %v", counts, as.Causes)
	}
	if withPC == 0 {
		t.Error("no attrib event resolved a corrupting-event PC from the causal window")
	}

	// Stage accounting sanity: committed instructions have fetch→commit
	// split into three non-degenerate intervals.
	if as.StageInsts == 0 {
		t.Fatal("no stage-accounted instructions")
	}
	if as.StageCycles[StageFrontend] == 0 || as.StageCycles[StageRetire] == 0 {
		t.Errorf("degenerate stage accounting: %v over %d insts", as.StageCycles, as.StageInsts)
	}
	if as.Recoveries == 0 || as.SquashBursts == 0 || as.RepairLatencyMax == 0 {
		t.Errorf("recovery characterization empty: recoveries=%d bursts=%d maxlat=%d",
			as.Recoveries, as.SquashBursts, as.RepairLatencyMax)
	}
}

// TestAttributorSteadyStateAllocs pins the other half of the inertness
// contract: with tracing ON (attributor, ring, mirrors), steady-state
// stepping still allocates nothing.
func TestAttributorSteadyStateAllocs(t *testing.T) {
	im := mustAssemble(t, corruptorProgram)
	s, err := New(config.Baseline().WithPolicy(core.RepairNone), im)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAttributor(32, 0, nil)
	s.SetTracer(a)
	for i := 0; i < 5000; i++ {
		if err := s.StepForTest(); err != nil {
			t.Fatal(err)
		}
	}
	n := testing.AllocsPerRun(20, func() {
		for i := 0; i < 200; i++ {
			_ = s.StepForTest()
		}
	})
	if s.Done() {
		t.Fatal("program finished during measurement; shorten the warmup")
	}
	if n != 0 {
		t.Fatalf("traced steady-state stepping allocates %v times per 200 cycles, want 0", n)
	}
	if a.Stats().Attributed == 0 {
		t.Fatal("no attributions during alloc measurement; the pin is vacuous")
	}
}

func TestAttribCauseNames(t *testing.T) {
	for i := 0; i < NumAttribCauses; i++ {
		c := AttribCause(i)
		got, ok := AttribCauseByName(c.String())
		if !ok || got != c {
			t.Errorf("cause %d round-trips as %v (%v)", i, got, ok)
		}
	}
	if _, ok := AttribCauseByName("bogus"); ok {
		t.Error("bogus cause name resolved")
	}
	if AttribCause(200).String() != "cause(200)" {
		t.Error("out-of-range cause String")
	}
	if len(StageNames()) != NumStages || StageName(StageExecute) != "execute" {
		t.Error("stage names broken")
	}
}

func TestAttribStatsMerge(t *testing.T) {
	a := AttribStats{Attributed: 3, Events: 10, StageInsts: 5, Recoveries: 2,
		RepairLatencySum: 40, RepairLatencyMax: 30, SquashBursts: 2, SquashedEntries: 9}
	a.Causes[CauseWrongPathPop] = 3
	a.StageCycles[StageFrontend] = 15
	b := AttribStats{Attributed: 2, Events: 4, StageInsts: 2, Recoveries: 1,
		RepairLatencySum: 10, RepairLatencyMax: 50, SquashBursts: 1, SquashedEntries: 4}
	b.Causes[CauseOverflowWrap] = 2
	b.StageCycles[StageFrontend] = 5
	a.Merge(&b)
	if a.Attributed != 5 || a.Causes[CauseWrongPathPop] != 3 || a.Causes[CauseOverflowWrap] != 2 {
		t.Errorf("merge causes wrong: %+v", a)
	}
	if a.RepairLatencyMax != 50 || a.RepairLatencySum != 50 || a.StageCycles[StageFrontend] != 20 {
		t.Errorf("merge aggregates wrong: %+v", a)
	}
	if a.Events != 14 || a.SquashedEntries != 13 {
		t.Errorf("merge counts wrong: %+v", a)
	}
}

func TestRingTracer(t *testing.T) {
	if NewRingTracer(5).Cap() != 64 {
		t.Fatalf("cap %d, want the 64-event floor", NewRingTracer(5).Cap())
	}
	if NewRingTracer(100).Cap() != 128 {
		t.Fatalf("cap %d, want power-of-two rounding to 128", NewRingTracer(100).Cap())
	}
	r := NewRingTracer(64)
	for i := 1; i <= 75; i++ { // wraps: keeps 12..75
		r.Event(TraceEvent{Cycle: uint64(i), Seq: uint64(i)})
	}
	if r.Len() != 64 {
		t.Fatalf("len %d, want 64", r.Len())
	}
	if r.At(0).Cycle != 12 || r.At(63).Cycle != 75 {
		t.Errorf("At order wrong: oldest=%d newest=%d", r.At(0).Cycle, r.At(63).Cycle)
	}
	var walked []uint64
	r.Walk(func(e TraceEvent) bool {
		walked = append(walked, e.Cycle)
		return e.Cycle > 73 // stop after reaching 73
	})
	if len(walked) != 3 || walked[0] != 75 || walked[2] != 73 {
		t.Errorf("walk newest-first with early exit got %v", walked)
	}
}

func TestMultiTracer(t *testing.T) {
	if MultiTracer() != nil || MultiTracer(nil, nil) != nil {
		t.Error("empty MultiTracer should be nil")
	}
	a := &captureTracer{}
	if MultiTracer(nil, a) != Tracer(a) {
		t.Error("single-tracer MultiTracer should unwrap")
	}
	b := &captureTracer{}
	m := MultiTracer(a, b)
	m.Event(TraceEvent{Cycle: 1})
	if len(a.events) != 1 || len(b.events) != 1 {
		t.Error("MultiTracer did not fan out")
	}
}

func TestTraceFlagsAndAux(t *testing.T) {
	if (FlagRASPop|FlagUnderflow).String() != "ras-pop,underflow" &&
		(FlagRASPop|FlagUnderflow).String() != "underflow,ras-pop" {
		t.Errorf("flag string: %q", (FlagRASPop | FlagUnderflow).String())
	}
	if TraceFlags(0).String() != "-" {
		t.Errorf("zero flags: %q", TraceFlags(0).String())
	}
	aux := PackRASAux(7, 31)
	if AuxStackID(aux) != 7 || AuxSlot(aux) != 31 {
		t.Errorf("aux round trip: id=%d slot=%d", AuxStackID(aux), AuxSlot(aux))
	}
	if AuxSlot(PackRASAux(3, -1)) != -1 {
		t.Error("unknown slot should round-trip as -1")
	}
	for k := TraceKind(0); int(k) < len(TraceKinds()); k++ {
		got, ok := TraceKindByName(k.String())
		if !ok || got != k {
			t.Errorf("kind %d round-trips as %v (%v)", k, got, ok)
		}
	}
}
