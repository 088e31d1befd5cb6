package bpred

import "testing"

func TestTargetCacheColdAndFill(t *testing.T) {
	// History bits zero: the index depends on the PC alone, so a fill is
	// immediately visible to the next lookup (with history, the lookup
	// context legitimately moves on after every update).
	tc := NewTargetCache(8, 0)
	if _, ok := tc.Predict(0x1000); ok {
		t.Error("cold entry should miss")
	}
	tc.Update(0x1000, 0x2000)
	if got, ok := tc.Predict(0x1000); !ok || got != 0x2000 {
		t.Errorf("predict = %#x,%v", got, ok)
	}
	if tc.Stats.Lookups != 2 || tc.Stats.Updates != 1 {
		t.Errorf("stats %+v", tc.Stats)
	}
}

// TestTargetCacheDisambiguatesByHistory: the same branch alternating
// between two targets in a fixed pattern becomes predictable because the
// target history changes the index — the property a last-target BTB lacks.
func TestTargetCacheDisambiguatesByHistory(t *testing.T) {
	tc := NewTargetCache(10, 8)
	btb := NewBTB(64, 1, nil)
	pc := uint32(0x4000)
	targets := []uint32{0x5000, 0x6000, 0x7000} // strict rotation
	correctTC, correctBTB := 0, 0
	total := 3000
	for i := 0; i < total; i++ {
		want := targets[i%len(targets)]
		if got, ok := tc.Predict(pc); ok && got == want {
			correctTC++
		}
		if got, ok := btb.Lookup(pc); ok && got == want {
			correctBTB++
		}
		tc.Update(pc, want)
		btb.Update(pc, want)
	}
	if correctBTB != 0 {
		t.Errorf("last-target BTB cannot predict a strict rotation, got %d", correctBTB)
	}
	if correctTC < total*9/10 {
		t.Errorf("target cache should learn the rotation, got %d/%d", correctTC, total)
	}
}

// TestTargetCacheSeparatesBranches: two branches with different targets
// must not thrash a reasonable-size table.
func TestTargetCacheSeparatesBranches(t *testing.T) {
	tc := NewTargetCache(10, 0) // no history: pure per-PC table
	tc.Update(0x100, 0xA)
	tc.Update(0x200, 0xB)
	if got, _ := tc.Predict(0x100); got != 0xA {
		t.Errorf("pc 0x100 -> %#x", got)
	}
	if got, _ := tc.Predict(0x200); got != 0xB {
		t.Errorf("pc 0x200 -> %#x", got)
	}
}
