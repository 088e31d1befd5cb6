package pipeline

import (
	"fmt"
	"reflect"
	"testing"

	"retstack/internal/config"
	"retstack/internal/core"
	"retstack/internal/program"
	"retstack/internal/workloads"
)

// lockstepConfigs returns Lockstepable machines covering every stack kind
// and predictor mode a lockstep unit can hold: the four repair policies,
// shallow and deep stacks, top-K stacks, a linked stack, speculative
// history, and the simple direction predictors.
func lockstepConfigs() map[string]config.Config {
	out := map[string]config.Config{}
	for _, pol := range core.Policies() {
		out[pol.String()] = config.Baseline().WithPolicy(pol)
	}
	out["full-4"] = config.Baseline().WithPolicy(core.RepairFullStack).WithRASEntries(4)
	out["contents-64"] = config.Baseline().WithPolicy(core.RepairTOSPointerAndContents).WithRASEntries(64)
	for _, k := range []int{0, 3} {
		c := config.Baseline()
		c.RASKind, c.RASTopK = config.RASTopK, k
		out[fmt.Sprintf("top-%d", k)] = c
	}
	linked := config.Baseline()
	linked.RASKind, linked.RASEntries = config.RASLinked, 48
	out["linked"] = linked
	spec := config.Baseline().WithPolicy(core.RepairTOSPointerAndContents)
	spec.SpecHistory = true
	out["spec-history"] = spec
	gshare := config.Baseline().WithPolicy(core.RepairFullStack)
	gshare.DirPred = config.DirGShare
	out["gshare"] = gshare
	bimodal := config.Baseline()
	bimodal.DirPred = config.DirBimodal
	out["bimodal"] = bimodal
	return out
}

func cloneImage(t *testing.T, name string, insts uint64) *program.Image {
	t.Helper()
	w, _ := workloads.ByName(name)
	im, err := w.Build(w.ScaleFor(2 * insts))
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// machineDiff reports the first difference between two finished Sims:
// statistics, registers, output, data memory, caches, BTB, direction and
// confidence predictors. "" means none.
func machineDiff(a, b *Sim) string {
	switch {
	case !reflect.DeepEqual(*a.Stats(), *b.Stats()):
		return fmt.Sprintf("Stats:\n%+v\n%+v", *a.Stats(), *b.Stats())
	case a.mach.Regs != b.mach.Regs || a.mach.PC != b.mach.PC:
		return "registers"
	case a.mach.Output() != b.mach.Output() || a.mach.ExitCode != b.mach.ExitCode:
		return "output"
	case a.mach.Mem.Digest() != b.mach.Mem.Digest():
		return "data memory"
	case !reflect.DeepEqual(a.hier.Snapshot(), b.hier.Snapshot()):
		return "caches"
	case !reflect.DeepEqual(a.btb.Snapshot(), b.btb.Snapshot()):
		return "BTB"
	case !reflect.DeepEqual(a.dirPred, b.dirPred):
		return "direction predictor"
	case !reflect.DeepEqual(a.conf.Snapshot(), b.conf.Snapshot()):
		return "confidence"
	}
	return ""
}

// TestForkMatchesUnforked: a Sim copied between cycles, and the Sim it was
// copied from, both finish exactly as a Sim that was never copied, for
// every machine a lockstep unit can hold on two clones, at several cycles.
func TestForkMatchesUnforked(t *testing.T) {
	const budget = 6_000
	for _, bench := range []string{"go", "li"} {
		im := cloneImage(t, bench, budget)
		for name, cfg := range lockstepConfigs() {
			want, err := New(cfg, im)
			if err != nil {
				t.Fatal(err)
			}
			if err := want.Run(budget); err != nil {
				t.Fatal(err)
			}
			for _, at := range []int{1, 613, 2_500} {
				parent, err := New(cfg, im)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < at; i++ {
					if err := parent.StepForTest(); err != nil {
						t.Fatal(err)
					}
				}
				child := NewFork(parent).Start(NewRecycler())
				for who, s := range map[string]*Sim{"parent": parent, "copy": child} {
					if err := s.Run(budget); err != nil {
						t.Fatalf("%s/%s at cycle %d, %s: %v", bench, name, at, who, err)
					}
					if d := machineDiff(want, s); d != "" {
						t.Errorf("%s/%s forked at cycle %d: the %s differs from the unforked run in %s", bench, name, at, who, d)
					}
				}
			}
		}
	}
}

// forkCopies classifies every Sim field by what NewFork and Start give the
// copy: "copied" (an equal value of its own) or "reset" (empty: scratch,
// pools and instrumentation). No Sim field is shared with the parent; what
// copies do share is immutable and sits below the fields, such as the
// image and its predecode plane behind the machine. A field added to Sim
// fails TestForkClassifiesEverySimField until it is classified here, and
// NewFork handles it.
var forkCopies = map[string]string{
	"cfg": "copied", "threads": "copied", "mach": "copied",
	"hier": "copied", "dirPred": "copied", "hybrid": "copied", "btb": "copied",
	"conf": "copied", "tcache": "copied", "sharedRAS": "copied", "lockstep": "copied",
	"ruu": "copied", "ruuState": "copied", "waiting": "copied", "inflight": "copied",
	"ruuHead": "copied", "ruuTail": "copied", "ruuCount": "copied", "lsqCount": "copied",
	"fetchQ": "copied", "fetchQHead": "copied", "fetchQLen": "copied",
	"paths": "copied", "liveCount": "copied", "nextToken": "copied", "nextSeq": "copied",
	"nextRasID": "copied", "shadowUsed": "copied", "cpTable": "copied", "cpHandles": "copied",
	"ovFree": "reset", "doomedToks": "reset", "stackSeen": "reset",
	"misses": "copied", "cycle": "copied", "tracer": "reset", "stats": "copied",
	"done": "copied", "runErr": "copied",
	"overlaySpills": "copied", "overlayReuses": "copied",
	"sampler": "reset", "sampleEvery": "reset", "disturbEvery": "reset", "disturbAddr": "reset",
	"lastSquashed": "copied", "lastRecoveries": "copied", "lastPredecodeHits": "copied",
	"lastPredecodeFalls": "copied", "lastOverlaySpills": "copied", "lastOverlayReuses": "copied",
	"lastBlockHits": "copied", "lastBlockBuilds": "copied", "lastBlockInvals": "copied",
	"maxInsts": "copied",
}

// TestForkClassifiesEverySimField holds NewFork to forkCopies: every field
// is classified, no copied reference is shared with the parent (a shared
// overlay, ring or machine would let one trajectory write another's
// state), and every reset field starts empty.
func TestForkClassifiesEverySimField(t *testing.T) {
	typ := reflect.TypeOf(Sim{})
	for i := 0; i < typ.NumField(); i++ {
		if _, ok := forkCopies[typ.Field(i).Name]; !ok {
			t.Errorf("Sim.%s is not classified in forkCopies", typ.Field(i).Name)
		}
	}
	if len(forkCopies) != typ.NumField() {
		t.Errorf("forkCopies classifies %d fields, Sim has %d: remove the stale ones", len(forkCopies), typ.NumField())
	}

	im := mustAssemble(t, corruptorProgram)
	parent, err := New(config.Baseline().WithPolicy(core.RepairFullStack), im)
	if err != nil {
		t.Fatal(err)
	}
	for parent.paths[0].correct || parent.stats.Recoveries == 0 { // mid-misprediction, overlay in use
		if err := parent.StepForTest(); err != nil {
			t.Fatal(err)
		}
	}
	child := NewFork(parent).Start(nil)
	pv, cv := reflect.ValueOf(parent).Elem(), reflect.ValueOf(child).Elem()
	for name, class := range forkCopies {
		p, c := pv.FieldByName(name), cv.FieldByName(name)
		switch class {
		case "copied":
			if aliased(p, c) {
				t.Errorf("Sim.%s: the copy shares the parent's", name)
			}
		case "reset":
			if !c.IsZero() && !(c.Kind() == reflect.Slice && c.Len() == 0) {
				t.Errorf("Sim.%s: the copy's is not empty", name)
			}
		}
	}
	if parent.paths[0].overlay == child.paths[0].overlay || child.paths[0].overlay.Base() != child.mach {
		t.Error("the copy's overlay is the parent's, or falls through to the parent's machine")
	}
	if child.paths[0].ras != child.sharedRAS || child.sharedRAS == parent.sharedRAS {
		t.Error("the copy's path does not use its own stack")
	}
}

// aliased reports whether a copied field still refers to the parent's
// storage: the same pointer, or a slice over the same array.
func aliased(p, c reflect.Value) bool {
	switch p.Kind() {
	case reflect.Pointer, reflect.Interface:
		if p.IsNil() {
			return false
		}
		if p.Kind() == reflect.Interface {
			p, c = p.Elem(), c.Elem()
			if p.Kind() != reflect.Pointer {
				return false
			}
		}
		return p.Pointer() == c.Pointer()
	case reflect.Slice:
		return p.Len() > 0 && p.Pointer() == c.Pointer()
	}
	return false
}

// runUnit drives a lockstep unit to the end, depth first, and returns
// each member's carrier by member name.
func runUnit(t *testing.T, s *Sim, budget uint64) map[int]*Sim {
	t.Helper()
	carriers := map[int]*Sim{}
	pending := []*Sim{s}
	for len(pending) > 0 {
		s := pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		forks, err := RunLockstep(s, budget)
		if err != nil {
			t.Fatal(err)
		}
		if len(forks) > 0 {
			pending = append(pending, s)
			for _, f := range forks {
				pending = append(pending, f.Start(nil))
			}
			continue
		}
		for _, id := range Carried(s) {
			carriers[id] = s
		}
	}
	return carriers
}

// memberStats returns member id's statistics from its carrier.
func memberStats(c *Sim, id int) Stats {
	for k, m := range Carried(c) {
		if m == id {
			return StatsOf(c, k)
		}
	}
	panic("member not carried")
}

// TestLockstepMatchesSolo: every member of a lockstep unit ends exactly as
// its own solo run, statistics and machine alike, and the unit forks.
func TestLockstepMatchesSolo(t *testing.T) {
	const budget = 8_000
	var cfgs []config.Config
	for _, pol := range core.Policies() {
		for _, d := range []int{4, 32} {
			cfgs = append(cfgs, config.Baseline().WithPolicy(pol).WithRASEntries(d))
		}
	}
	for _, bench := range []string{"go", "li"} {
		im := cloneImage(t, bench, budget)
		unit, err := NewLockstep(cfgs, im, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		carriers := runUnit(t, unit, budget)
		distinct := map[*Sim]bool{}
		for id, cfg := range cfgs {
			solo, err := New(cfg, im)
			if err != nil {
				t.Fatal(err)
			}
			if err := solo.Run(budget); err != nil {
				t.Fatal(err)
			}
			c := carriers[id]
			distinct[c] = true
			if got, want := memberStats(c, id), solo.Stats(); !reflect.DeepEqual(got, *want) {
				t.Errorf("%s member %d (%s, %d entries): stats\n%+v\nwant\n%+v", bench, id, cfg.RASPolicy, cfg.RASEntries, got, *want)
			}
			c.stats.RAS = solo.stats.RAS
			if d := machineDiff(c, solo); d != "" {
				t.Errorf("%s member %d: carrier differs from the solo run in %s", bench, id, d)
			}
		}
		if len(distinct) < 2 {
			t.Errorf("%s: %d members ran on %d trajectories: the unit never forked", bench, len(cfgs), len(distinct))
		}
	}
}
