package cache

import (
	"math/rand"
	"testing"
)

func smallCache(next Level) *Cache {
	return New(Config{
		Name: "l1", SizeBytes: 256, Ways: 2, LineBytes: 32, HitLatency: 1,
	}, next, nil)
}

func TestHitAfterMiss(t *testing.T) {
	mem := NewMainMemory(50)
	c := smallCache(mem)
	if lat := c.Access(0x1000, false); lat != 51 {
		t.Errorf("cold miss latency = %d, want 51", lat)
	}
	if lat := c.Access(0x1004, false); lat != 1 {
		t.Errorf("same-line hit latency = %d, want 1", lat)
	}
	s := c.Stats()
	if s.Accesses != 2 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLineGranularity(t *testing.T) {
	c := smallCache(NewMainMemory(10))
	c.Access(0x1000, false)
	// Every word in [0x1000, 0x1020) is the same 32-byte line.
	for a := uint32(0x1000); a < 0x1020; a += 4 {
		if lat := c.Access(a, false); lat != 1 {
			t.Errorf("addr %#x should hit, latency %d", a, lat)
		}
	}
	// Next line misses.
	if lat := c.Access(0x1020, false); lat == 1 {
		t.Error("next line should miss")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// 256B, 2-way, 32B lines -> 4 sets. Lines mapping to set 0 are
	// addresses with (addr>>5)%4 == 0: 0x000, 0x080, 0x100, ...
	c := smallCache(NewMainMemory(10))
	c.Access(0x000, false)
	c.Access(0x080, false)
	c.Access(0x000, false) // touch; LRU = 0x080
	c.Access(0x100, false) // evicts 0x080
	if lat := c.Access(0x000, false); lat != 1 {
		t.Error("0x000 should have survived")
	}
	if lat := c.Access(0x080, false); lat == 1 {
		t.Error("0x080 should have been evicted")
	}
}

func TestWriteBackOnlyWhenDirty(t *testing.T) {
	mem := NewMainMemory(10)
	c := smallCache(mem)
	// Fill set 0 with clean lines, then evict: no write-back.
	c.Access(0x000, false)
	c.Access(0x080, false)
	c.Access(0x100, false)
	if s := c.Stats(); s.WriteBacks != 0 {
		t.Errorf("clean eviction caused %d write-backs", s.WriteBacks)
	}
	// Dirty a line, force its eviction: one write-back.
	c.Access(0x180, true)  // write-allocate, dirty
	c.Access(0x200, false) // set 0 again... (0x180>>5)%4 = 12%4 = 0
	c.Access(0x280, false)
	if s := c.Stats(); s.WriteBacks != 1 {
		t.Errorf("writebacks = %d, want 1", s.WriteBacks)
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	// Property: number of distinct resident lines <= total lines. Probe by
	// counting hits over a working set larger than the cache: with 8
	// lines of capacity and a 16-line working set cycled round-robin and
	// LRU replacement, everything must miss.
	c := smallCache(NewMainMemory(10))
	for round := 0; round < 4; round++ {
		for i := uint32(0); i < 16; i++ {
			c.Access(i*32, false)
		}
	}
	s := c.Stats()
	if s.Misses != s.Accesses {
		t.Errorf("LRU round-robin over 2x capacity should always miss: %+v", s)
	}
}

func TestHierarchyPlumbing(t *testing.T) {
	h := NewHierarchy(HierarchyConfig{
		L1I:        Config{Name: "l1i", SizeBytes: 1024, Ways: 2, LineBytes: 32, HitLatency: 1},
		L1D:        Config{Name: "l1d", SizeBytes: 1024, Ways: 2, LineBytes: 32, HitLatency: 1},
		L2:         Config{Name: "l2", SizeBytes: 8192, Ways: 4, LineBytes: 64, HitLatency: 8},
		MemLatency: 50,
	}, nil)
	// Cold: L1I miss -> L2 miss -> memory.
	if lat := h.L1I.Access(0x4000, false); lat != 1+8+50 {
		t.Errorf("cold inst fetch latency = %d, want 59", lat)
	}
	// L1D cold miss to the same line: L2 now holds it.
	if lat := h.L1D.Access(0x4000, false); lat != 1+8 {
		t.Errorf("L1D miss/L2 hit latency = %d, want 9", lat)
	}
	if h.Mem.Accesses != 1 {
		t.Errorf("memory accesses = %d, want 1", h.Mem.Accesses)
	}
	if h.String() == "" {
		t.Error("empty summary")
	}
}

// TestPooledHierarchyStartsCold releases a used hierarchy into a pool and
// builds the next one from it: the released one keeps its statistics, and
// the new one reuses the arrays yet starts with every line invalid.
func TestPooledHierarchyStartsCold(t *testing.T) {
	cfg := HierarchyConfig{
		L1I:        Config{Name: "l1i", SizeBytes: 1024, Ways: 2, LineBytes: 32, HitLatency: 1},
		L1D:        Config{Name: "l1d", SizeBytes: 1024, Ways: 2, LineBytes: 32, HitLatency: 1},
		L2:         Config{Name: "l2", SizeBytes: 8192, Ways: 4, LineBytes: 64, HitLatency: 8},
		MemLatency: 50,
	}
	var pool Pool
	old := NewHierarchy(cfg, &pool)
	for a := uint32(0); a < 1<<14; a += 32 {
		old.L1I.Access(a, false)
		old.L1D.Access(a, true)
	}
	l2 := old.L2.lines
	want := old.L1D.Stats()
	old.Release(&pool)
	if got := old.L1D.Stats(); got != want || got.Accesses == 0 {
		t.Fatalf("released L1D stats = %+v, want %+v", got, want)
	}

	h := NewHierarchy(cfg, &pool)
	if &h.L2.lines[0] != &l2[0] {
		t.Fatal("the new L2 did not reuse the released array")
	}
	for a := uint32(0); a < 1<<14; a += 32 {
		if h.L1D.Probe(a) || h.L2.Probe(a) {
			t.Fatalf("addr %#x hits in a cache built from a released array", a)
		}
	}
}

func TestRandomizedAgainstModel(t *testing.T) {
	// Cross-check hit/miss decisions against a brute-force LRU model.
	type key = uint32
	const sets, ways, lineShift = 4, 2, 5
	c := smallCache(NewMainMemory(10))
	model := make([][]key, sets) // per-set MRU-first list of line addrs
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20000; i++ {
		addr := uint32(rng.Intn(64)) * 16 // overlapping lines
		line := addr >> lineShift
		set := line % sets
		// Model lookup.
		hit := false
		for j, l := range model[set] {
			if l == line {
				hit = true
				copy(model[set][1:j+1], model[set][:j])
				model[set][0] = line
				break
			}
		}
		if !hit {
			if len(model[set]) == ways {
				model[set] = model[set][:ways-1]
			}
			model[set] = append([]key{line}, model[set]...)
		}
		lat := c.Access(addr, rng.Intn(2) == 0)
		gotHit := lat == 1
		if gotHit != hit {
			t.Fatalf("access %d addr %#x: cache hit=%v model hit=%v", i, addr, gotHit, hit)
		}
	}
}

func TestGeometryPanics(t *testing.T) {
	mem := NewMainMemory(1)
	bad := []Config{
		{SizeBytes: 100, Ways: 2, LineBytes: 33, HitLatency: 1}, // line not pow2
		{SizeBytes: 0, Ways: 2, LineBytes: 32, HitLatency: 1},
		{SizeBytes: 256, Ways: 0, LineBytes: 32, HitLatency: 1},
		{SizeBytes: 96, Ways: 1, LineBytes: 32, HitLatency: 1}, // 3 sets
	}
	for _, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v should panic", cfg)
				}
			}()
			New(cfg, mem, nil)
		}()
	}
}

func TestMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Error("empty miss rate should be 0")
	}
	s = Stats{Accesses: 4, Misses: 1}
	if s.MissRate() != 0.25 {
		t.Error("miss rate")
	}
}
