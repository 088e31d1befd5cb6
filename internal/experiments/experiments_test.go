package experiments

import (
	"strings"
	"testing"

	"retstack/internal/core"
)

// Small budgets keep the test suite fast; the assertions target shape, not
// precision.
var testParams = Params{InstBudget: 40_000}

// fastParams restricts to three representative workloads for the heavier
// sweeps.
var fastParams = Params{InstBudget: 30_000, Workloads: []string{"go", "li", "ijpeg"}}

func TestIDsAndTitles(t *testing.T) {
	ids := IDs()
	if len(ids) != 17 {
		t.Fatalf("IDs() = %v", ids)
	}
	for _, id := range ids {
		if _, ok := Title(id); !ok {
			t.Errorf("missing title for %s", id)
		}
	}
	if _, err := Run("nope", testParams); err == nil {
		t.Error("unknown id should error")
	}
	if _, err := Run("t3", Params{Workloads: []string{"bogus"}}); err == nil {
		t.Error("unknown workload should error")
	}
}

func TestT1Renders(t *testing.T) {
	res, err := Run("t1", testParams)
	if err != nil {
		t.Fatal(err)
	}
	s := res.String()
	for _, want := range []string{"t1", "RUU", "64 entries", "4K GAg"} {
		if !strings.Contains(s, want) {
			t.Errorf("t1 output missing %q", want)
		}
	}
}

func TestT2Shape(t *testing.T) {
	res, err := Run("t2", testParams)
	if err != nil {
		t.Fatal(err)
	}
	liDepth, _ := res.Get("maxdepth", "li", "base")
	ijDepth, _ := res.Get("maxdepth", "ijpeg", "base")
	if liDepth <= ijDepth {
		t.Errorf("li depth (%v) should exceed ijpeg (%v)", liDepth, ijDepth)
	}
	ijCalls, _ := res.Get("callpct", "ijpeg", "base")
	if ijCalls > 1 {
		t.Errorf("ijpeg call density %v%% should be <1%%", ijCalls)
	}
}

// TestT3Shape is the paper's central claim: repair ordering and
// near-perfect hit rates for the proposal.
func TestT3Shape(t *testing.T) {
	res, err := Run("t3", fastParams)
	if err != nil {
		t.Fatal(err)
	}
	for _, bench := range fastParams.Workloads {
		none, _ := res.Get("hit", bench, "none")
		prop, _ := res.Get("hit", bench, core.RepairTOSPointerAndContents.String())
		full, _ := res.Get("hit", bench, core.RepairFullStack.String())
		if prop < none-1e-9 {
			t.Errorf("%s: proposal (%v) worse than none (%v)", bench, prop, none)
		}
		if full < 0.999 {
			t.Errorf("%s: full repair hit %v, want ~1", bench, full)
		}
		if bench != "ijpeg" && prop < 0.97 {
			t.Errorf("%s: proposal hit %v, want near 1", bench, prop)
		}
	}
	// The hard workloads must show real corruption without repair.
	goNone, _ := res.Get("hit", "go", "none")
	if goNone > 0.95 {
		t.Errorf("go without repair should visibly suffer, got %v", goNone)
	}
}

func TestT4Shape(t *testing.T) {
	res, err := Run("t4", Params{InstBudget: 30_000, Workloads: []string{"vortex", "ijpeg"}})
	if err != nil {
		t.Fatal(err)
	}
	vx, _ := res.Get("hit", "vortex", "btb-only")
	if vx > 0.7 {
		t.Errorf("vortex BTB-only hit %v, should suffer badly", vx)
	}
	ij, _ := res.Get("speedup", "ijpeg", "ras-vs-btb")
	if ij > 3 || ij < -3 {
		t.Errorf("ijpeg should be insensitive, speedup %v%%", ij)
	}
	vxsp, _ := res.Get("speedup", "vortex", "ras-vs-btb")
	if vxsp < 5 {
		t.Errorf("vortex should gain substantially from a RAS, got %v%%", vxsp)
	}
}

func TestF1Shape(t *testing.T) {
	res, err := Run("f1", Params{InstBudget: 30_000, Workloads: []string{"li"}})
	if err != nil {
		t.Fatal(err)
	}
	h4, _ := res.Get("hit.tos-ptr+contents", "li", "4")
	h64, _ := res.Get("hit.tos-ptr+contents", "li", "64")
	if h64 < h4 {
		t.Errorf("hit rate must not fall with depth: 4->%v 64->%v", h4, h64)
	}
	if h64 < 0.99 {
		t.Errorf("li at 64 entries should be near-perfect, got %v", h64)
	}
	if h4 > 0.95 {
		t.Errorf("li at 4 entries should overflow badly, got %v", h4)
	}
}

func TestF2Shape(t *testing.T) {
	res, err := Run("f2", Params{InstBudget: 30_000, Workloads: []string{"li"}})
	if err != nil {
		t.Fatal(err)
	}
	o2, _ := res.Get("ovf", "li", "2")
	o64, _ := res.Get("ovf", "li", "64")
	if o2 <= o64 {
		t.Errorf("overflow must fall with depth: 2->%v 64->%v", o2, o64)
	}
	if o64 != 0 {
		t.Errorf("64-entry stack should not overflow on li, got %v", o64)
	}
}

func TestF3Shape(t *testing.T) {
	res, err := Run("f3", fastParams)
	if err != nil {
		t.Fatal(err)
	}
	goSp, _ := res.Get("speedup", "go", core.RepairTOSPointerAndContents.String())
	ijSp, _ := res.Get("speedup", "ijpeg", core.RepairTOSPointerAndContents.String())
	if goSp < 2 {
		t.Errorf("go should gain from repair, got %v%%", goSp)
	}
	if ijSp > goSp {
		t.Errorf("ijpeg (%v%%) should gain less than go (%v%%)", ijSp, goSp)
	}
}

func TestF4Shape(t *testing.T) {
	res, err := Run("f4", Params{InstBudget: 30_000, Workloads: []string{"go"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, paths := range []string{"2p", "4p"} {
		rel, ok := res.Get("rel", "go", paths+"-per-path")
		if !ok {
			t.Fatalf("missing rel for %s", paths)
		}
		if rel < 1.02 {
			t.Errorf("%s per-path stacks should clearly beat unified, rel=%v", paths, rel)
		}
		hit, _ := res.Get("hit", "go", paths+"-"+"per-path")
		if hit < 0.97 {
			t.Errorf("%s per-path hit %v, want ~1", paths, hit)
		}
		uh, _ := res.Get("hit", "go", paths+"-unified")
		if uh >= hit {
			t.Errorf("%s unified hit %v should trail per-path %v", paths, uh, hit)
		}
	}
}

func TestA1Shape(t *testing.T) {
	res, err := Run("a1", Params{InstBudget: 30_000, Workloads: []string{"go"}})
	if err != nil {
		t.Fatal(err)
	}
	h1, _ := res.Get("hit", "go", "1")
	h20, _ := res.Get("hit", "go", "20")
	hu, _ := res.Get("hit", "go", "unbounded")
	if h1 > h20+1e-9 || h20 > hu+1e-9 {
		t.Errorf("hit must rise with slots: 1=%v 20=%v unbounded=%v", h1, h20, hu)
	}
	d1, _ := res.Get("denied", "go", "1")
	du, _ := res.Get("denied", "go", "unbounded")
	if d1 == 0 || du != 0 {
		t.Errorf("denials: 1 slot=%v unbounded=%v", d1, du)
	}
}

func TestA2Shape(t *testing.T) {
	res, err := Run("a2", Params{InstBudget: 30_000, Workloads: []string{"go"}})
	if err != nil {
		t.Fatal(err)
	}
	l32, _ := res.Get("hit", "go", "linked32")
	l128, _ := res.Get("hit", "go", "linked128")
	if l128 < l32-1e-9 {
		t.Errorf("linked hit should rise with physical entries: 32=%v 128=%v", l32, l128)
	}
	if l128 < 0.97 {
		t.Errorf("linked128 should be near-perfect, got %v", l128)
	}
}

func TestA3Shape(t *testing.T) {
	res, err := Run("a3", Params{InstBudget: 30_000, Workloads: []string{"ijpeg", "go"}})
	if err != nil {
		t.Fatal(err)
	}
	cm, _ := res.Get("mispred", "ijpeg", "commit")
	sm, _ := res.Get("mispred", "ijpeg", "spec")
	if sm >= cm {
		t.Errorf("spec history should cut ijpeg's loop mispredictions: commit=%v spec=%v", cm, sm)
	}
	if sm > 0.02 {
		t.Errorf("ijpeg under spec history should be near-perfect, got %v", sm)
	}
	ci, _ := res.Get("ipc", "ijpeg", "commit")
	si, _ := res.Get("ipc", "ijpeg", "spec")
	if si <= ci {
		t.Errorf("spec history should raise ijpeg IPC: commit=%v spec=%v", ci, si)
	}
}

func TestA4Shape(t *testing.T) {
	res, err := Run("a4", Params{InstBudget: 30_000, Workloads: []string{"m88ksim", "vortex"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, bench := range []string{"m88ksim", "vortex"} {
		tc, _ := res.Get("hit", bench, "ret-tc")
		ras, _ := res.Get("hit", bench, "ret-ras")
		if tc >= ras {
			t.Errorf("%s: target-cache returns (%v) must trail the RAS (%v)", bench, tc, ras)
		}
		if ras < 0.97 {
			t.Errorf("%s: RAS returns %v, want ~1", bench, ras)
		}
	}
	// The target cache must beat the BTB on the rotating dispatch of
	// m88ksim (history disambiguates contexts; last-target cannot).
	bt, _ := res.Get("indhit", "m88ksim", "ind-btb")
	tc, _ := res.Get("indhit", "m88ksim", "ind-tc")
	if tc <= bt {
		t.Errorf("m88ksim: target cache (%v) should beat BTB (%v) on indirects", tc, bt)
	}
}

func TestA5Shape(t *testing.T) {
	res, err := Run("a5", Params{InstBudget: 30_000, Workloads: []string{"go", "li"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, bench := range []string{"go", "li"} {
		k0, _ := res.Get("hit", bench, "K0")
		k1, _ := res.Get("hit", bench, "K1")
		k32, _ := res.Get("hit", bench, "K32")
		if k1 < k0-1e-9 || k32 < k1-1e-9 {
			t.Errorf("%s: hit must be monotone in K: K0=%v K1=%v K32=%v", bench, k0, k1, k32)
		}
		if k32-k1 > 0.03 {
			t.Errorf("%s: K=1 should capture nearly all of full checkpointing (K1=%v K32=%v)",
				bench, k1, k32)
		}
	}
}

func TestA6Shape(t *testing.T) {
	res, err := Run("a6", Params{InstBudget: 30_000, Workloads: []string{"go", "li"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, bench := range []string{"go", "li"} {
		none, _ := res.Get("hit", bench, "none")
		vb, _ := res.Get("hit", bench, "valid-bits")
		prop, _ := res.Get("hit", bench, "tos-ptr+contents")
		if vb < none-1e-9 || vb > prop+1e-9 {
			t.Errorf("%s: valid-bits (%v) must sit between none (%v) and the proposal (%v)",
				bench, vb, none, prop)
		}
	}
}

func TestF5Shape(t *testing.T) {
	res, err := Run("f5", Params{InstBudget: 30_000, Workloads: []string{"go", "ijpeg"}})
	if err != nil {
		t.Fatal(err)
	}
	goPush, _ := res.Get("wppush", "go", "none")
	if goPush <= 0 {
		t.Error("go must show wrong-path pushes")
	}
	rec, _ := res.Get("recov", "go", "none")
	if rec <= 0 {
		t.Error("go must show recoveries")
	}
}

func TestA7Shape(t *testing.T) {
	res, err := Run("a7", Params{InstBudget: 30_000, Workloads: []string{"vortex"}})
	if err != nil {
		t.Fatal(err)
	}
	sh, _ := res.Get("hit", "vortex", "shared")
	pt, _ := res.Get("hit", "vortex", "per-thread")
	if pt < 0.97 {
		t.Errorf("per-thread SMT stacks should be near-perfect, got %v", pt)
	}
	if sh > pt-0.2 {
		t.Errorf("shared SMT stack (%v) should collapse far below per-thread (%v)", sh, pt)
	}
	shIPC, _ := res.Get("ipc", "vortex", "shared")
	ptIPC, _ := res.Get("ipc", "vortex", "per-thread")
	if ptIPC <= shIPC {
		t.Errorf("per-thread IPC (%v) should beat shared (%v)", ptIPC, shIPC)
	}
}

func TestA8Shape(t *testing.T) {
	res, err := Run("a8", Params{InstBudget: 30_000, Workloads: []string{"gcc", "m88ksim"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"bimodal", "gshare", "hybrid"} {
		g, _ := res.Get("speedup", "gcc", kind)
		m, _ := res.Get("speedup", "m88ksim", kind)
		if g < 3 {
			t.Errorf("gcc/%s: mispredict-heavy workload should gain from repair, got %v%%", kind, g)
		}
		if m > 2 || m < -2 {
			t.Errorf("m88ksim/%s: predictable workload should be repair-insensitive, got %v%%", kind, m)
		}
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{}
	if _, ok := r.Get("a", "b", "c"); ok {
		t.Error("empty result should miss")
	}
	r.put("a", "b", "c", 1.5)
	if v, ok := r.Get("a", "b", "c"); !ok || v != 1.5 {
		t.Error("put/get broken")
	}
}

// TestRepeatedWorkloadRejected: a workload named twice is refused, as an
// unknown one is, instead of simulating its cells twice under a store
// scope no plain run shares.
func TestRepeatedWorkloadRejected(t *testing.T) {
	_, err := Run("t3", Params{InstBudget: 1_000, Workloads: []string{"go", "li", "go"}})
	if err == nil || !strings.Contains(err.Error(), `workload "go" is listed twice`) {
		t.Fatalf("err = %v, want the repeated workload named", err)
	}
}
