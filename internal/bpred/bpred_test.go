package bpred

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCounterTableSaturation(t *testing.T) {
	ct := NewCounterTable(4, 2)
	// Start weakly taken (2 of max 3).
	if !ct.Taken(0) {
		t.Error("initial state should predict taken")
	}
	for i := 0; i < 10; i++ {
		ct.Update(0, true)
	}
	if ct.Value(0) != 3 {
		t.Errorf("saturated high = %d", ct.Value(0))
	}
	for i := 0; i < 10; i++ {
		ct.Update(0, false)
	}
	if ct.Value(0) != 0 {
		t.Errorf("saturated low = %d", ct.Value(0))
	}
	if ct.Taken(0) {
		t.Error("should predict not taken at 0")
	}
	// Hysteresis: one taken from 0 stays not-taken.
	ct.Update(0, true)
	if ct.Taken(0) {
		t.Error("counter 1 of 3 should still predict not taken")
	}
	ct.Reset(1, 9)
	if ct.Value(1) != 3 {
		t.Error("reset should clamp to max")
	}
}

func TestCounterTablePanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewCounterTable(3, 2) },
		func() { NewCounterTable(0, 2) },
		func() { NewCounterTable(4, 0) },
		func() { NewCounterTable(4, 9) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestCounterIndexWraps(t *testing.T) {
	ct := NewCounterTable(8, 2)
	ct.Update(3, true)
	ct.Update(3, true)
	if ct.Value(3+8) != ct.Value(3) {
		t.Error("index should wrap modulo size")
	}
}

func TestGAgLearnsAlternating(t *testing.T) {
	g := NewGAg(12)
	// A strictly alternating branch is perfectly predictable from one bit
	// of history once trained.
	correct := 0
	taken := false
	for i := 0; i < 2000; i++ {
		if g.Predict(0x1000) == taken {
			correct++
		}
		g.Update(0x1000, taken)
		taken = !taken
	}
	// After warmup the tail should be near-perfect.
	if correct < 1900 {
		t.Errorf("GAg alternating accuracy %d/2000", correct)
	}
}

func TestPAgSeparatesBranches(t *testing.T) {
	p := NewPAg(1024, 10)
	// Two non-aliasing branches with opposite constant behavior must both
	// be learned (0x1000 and 0x1004 land in different LHT entries).
	for i := 0; i < 200; i++ {
		p.Update(0x1000, true)
		p.Update(0x1004, false)
	}
	if !p.Predict(0x1000) || p.Predict(0x1004) {
		t.Error("PAg failed to separate two constant branches")
	}
	// Aliasing PCs (0x1000 and 0x2000 both map LHT entry 0 with 1K
	// entries) share one local history — document the interference.
	if (uint32(0x1000)>>2)&1023 != (uint32(0x2000)>>2)&1023 {
		t.Error("test assumption broken: PCs should alias")
	}
}

func TestPAgLearnsShortLoop(t *testing.T) {
	// A loop branch taken 3 times then not taken once — classic local
	// history pattern PAg captures and GAg-with-interference might not.
	p := NewPAg(1024, 10)
	correct := 0
	total := 0
	for iter := 0; iter < 400; iter++ {
		for k := 0; k < 4; k++ {
			taken := k < 3
			if iter > 100 {
				total++
				if p.Predict(0x4000) == taken {
					correct++
				}
			}
			p.Update(0x4000, taken)
		}
	}
	if correct < total*95/100 {
		t.Errorf("PAg loop accuracy %d/%d", correct, total)
	}
}

func TestHybridBeatsWorstComponent(t *testing.T) {
	h := NewHybrid()
	rng := rand.New(rand.NewSource(5))
	// A mix: branch A alternates (GAg-friendly), branch B has 4-periodic
	// local pattern (PAg-friendly), plus noise branches.
	takenA := false
	kB := 0
	for i := 0; i < 20000; i++ {
		h.Update(0x1000, takenA)
		takenA = !takenA
		h.Update(0x2000, kB < 3)
		kB = (kB + 1) % 4
		if i%3 == 0 {
			h.Update(0x3000+uint32(rng.Intn(16))*4, rng.Intn(2) == 0)
		}
	}
	acc := float64(h.Stats.Correct) / float64(h.Stats.Lookups)
	if acc < 0.80 {
		t.Errorf("hybrid accuracy %.3f too low", acc)
	}
}

func TestHybridSelectorPrefersBetterComponent(t *testing.T) {
	// If only local patterns exist, the selector should drift toward PAg;
	// the stat counting GAg choices should not dominate.
	h := NewHybrid()
	for i := 0; i < 8000; i++ {
		// Period-3 local patterns at several PCs destroy pure global
		// history (the combined global stream is aperiodic).
		for _, pc := range []uint32{0x100, 0x200, 0x300} {
			h.Update(pc, i%3 != 0)
		}
	}
	frac := float64(h.Stats.GAgChosen) / float64(h.Stats.Lookups)
	if frac > 0.9 {
		t.Errorf("selector stuck on GAg (%.2f)", frac)
	}
}

func TestBTBHitMissAndLRU(t *testing.T) {
	b := NewBTB(2, 2, nil) // tiny: 2 sets x 2 ways
	if _, ok := b.Lookup(0x1000); ok {
		t.Error("empty BTB should miss")
	}
	b.Update(0x1000, 0xAAAA)
	if tgt, ok := b.Lookup(0x1000); !ok || tgt != 0xAAAA {
		t.Errorf("lookup = %#x,%v", tgt, ok)
	}
	// Fill the set that pc 0x1000 maps to: same set = same (pc>>2)&1.
	b.Update(0x1008, 0xBBBB) // same set (bit 2 of pc>>2... verify via collision behavior)
	b.Update(0x1010, 0xCCCC)
	b.Update(0x1018, 0xDDDD)
	// Re-update target of an existing entry.
	b.Update(0x1018, 0xEEEE)
	if tgt, ok := b.Lookup(0x1018); !ok || tgt != 0xEEEE {
		t.Errorf("re-update failed: %#x,%v", tgt, ok)
	}
	st := b.Stats
	if st.Updates != 5 {
		t.Errorf("updates = %d", st.Updates)
	}
}

func TestBTBLRUEviction(t *testing.T) {
	b := NewBTB(1, 2, nil) // one set, 2 ways
	b.Update(0x10, 1)
	b.Update(0x20, 2)
	b.Lookup(0x10)    // touch 0x10 -> LRU victim is 0x20
	b.Update(0x30, 3) // evicts 0x20
	if _, ok := b.Lookup(0x20); ok {
		t.Error("0x20 should have been evicted")
	}
	if _, ok := b.Lookup(0x10); !ok {
		t.Error("0x10 should survive")
	}
	if tgt, ok := b.Lookup(0x30); !ok || tgt != 3 {
		t.Error("0x30 should be present")
	}
}

func TestBTBQuickNeverForgetsLastUpdateWithinCapacity(t *testing.T) {
	// Property: with a direct-mapped BTB, looking up the same PC right
	// after updating it always hits with the installed target.
	b := NewBTB(64, 1, nil)
	f := func(pcSeed, target uint32) bool {
		pc := pcSeed &^ 3 // word aligned
		b.Update(pc, target)
		got, ok := b.Lookup(pc)
		return ok && got == target
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestBTBPoolReuseStartsEmpty releases a used BTB into a pool and builds
// the next one from it: the released one keeps its statistics, and the new
// one reuses the array yet misses on every branch the old one held.
func TestBTBPoolReuseStartsEmpty(t *testing.T) {
	var pool BTBPool
	old := NewBTB(16, 2, &pool)
	for pc := uint32(4); pc < 4*64; pc += 4 {
		old.Update(pc, pc+0x100)
	}
	arr := old.entries
	want := old.Stats
	old.Release(&pool)
	if old.Stats != want || want.Updates == 0 {
		t.Fatalf("released BTB stats = %+v, want %+v", old.Stats, want)
	}
	b := NewBTB(16, 2, &pool)
	if &b.entries[0] != &arr[0] {
		t.Fatal("the new BTB did not reuse the released array")
	}
	for pc := uint32(4); pc < 4*64; pc += 4 {
		if _, ok := b.Lookup(pc); ok {
			t.Fatalf("pc %#x hits in a BTB built from a released array", pc)
		}
	}
}

func TestBTBPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad geometry should panic")
		}
	}()
	NewBTB(3, 2, nil)
}

func TestConfidenceResetting(t *testing.T) {
	c := NewConfidence(4, 4, 8)
	pc := uint32(0x1000)
	if c.High(pc) {
		t.Error("fresh counter should be low confidence")
	}
	for i := 0; i < 8; i++ {
		c.Update(pc, true)
	}
	if !c.High(pc) {
		t.Error("8 correct predictions should reach threshold")
	}
	c.Update(pc, false)
	if c.High(pc) {
		t.Error("one misprediction must reset to low confidence")
	}
	// Saturation: many corrects then one wrong still resets.
	for i := 0; i < 100; i++ {
		c.Update(pc, true)
	}
	c.Update(pc, false)
	if c.High(pc) {
		t.Error("reset after saturation failed")
	}
	if c.Stats.Queries == 0 {
		t.Error("stats not counted")
	}
}

func TestDefaultConstructors(t *testing.T) {
	if NewHybrid() == nil || NewDefaultConfidence() == nil {
		t.Fatal("constructors returned nil")
	}
	// Baseline geometry sanity: 4K GAg table.
	h := NewHybrid()
	if h.gag.pht.Size() != 4096 {
		t.Errorf("GAg PHT size = %d, want 4096", h.gag.pht.Size())
	}
	if h.pag.pht.Size() != 1024 {
		t.Errorf("PAg PHT size = %d, want 1024", h.pag.pht.Size())
	}
	if h.selector.Size() != 4096 {
		t.Errorf("selector size = %d, want 4096", h.selector.Size())
	}
}
