package bpred

import "retstack/internal/slicepool"

// BTB is a set-associative branch target buffer with true-LRU replacement.
// Following the paper's baseline it is decoupled from the direction
// predictor and allocates entries only for taken branches, which lets it
// stay small. Returns are stored like any other taken branch, so a
// processor without a return-address stack predicts returns from the BTB —
// the configuration quantified by the paper's Table 4.
type BTB struct {
	sets    int
	ways    int
	entries []btbEntry // sets*ways, a set's ways adjacent
	clock   uint64

	Stats BTBStats
}

// btbEntry is one BTB way.
type btbEntry struct {
	tag    uint32 // branch PC; 0 means invalid (PC 0 never holds a branch)
	target uint32
	stamp  uint64 // last-use timestamp; the smallest in a set is the victim
}

// BTBPool recycles entry arrays between BTBs built one after another (see
// NewBTB and BTB.Release).
type BTBPool = slicepool.Pool[btbEntry]

// BTBStats counts lookup outcomes.
type BTBStats struct {
	Lookups uint64
	Hits    uint64
	Updates uint64
}

// NewBTB returns a BTB with the given geometry, drawing its entry array
// from pool (nil allocates it); both sizes must be powers of two (ways may
// be 1 for direct-mapped).
func NewBTB(sets, ways int, pool *BTBPool) *BTB {
	if sets <= 0 || sets&(sets-1) != 0 || ways <= 0 {
		panic("bpred: BTB geometry must be positive powers of two")
	}
	return &BTB{sets: sets, ways: ways, entries: pool.Take(sets * ways)}
}

// Release returns the BTB's entry array to pool. Its statistics stay
// readable; it must not be used again.
func (b *BTB) Release(pool *BTBPool) {
	pool.Put(b.entries)
	b.entries = nil
}

// set returns the ways of the set pc maps to.
func (b *BTB) set(pc uint32) []btbEntry {
	base := int((pc>>2)&uint32(b.sets-1)) * b.ways
	return b.entries[base : base+b.ways : base+b.ways]
}

// Lookup returns the predicted target for the branch at pc.
func (b *BTB) Lookup(pc uint32) (target uint32, ok bool) {
	b.Stats.Lookups++
	set := b.set(pc)
	for i := range set {
		if e := &set[i]; e.tag == pc {
			b.Stats.Hits++
			b.touch(e)
			return e.target, true
		}
	}
	return 0, false
}

// Update installs or refreshes the target of a taken branch at pc,
// preferring invalid ways and otherwise evicting the least recently used.
func (b *BTB) Update(pc, target uint32) {
	b.Stats.Updates++
	set := b.set(pc)
	// First pass: refresh an existing entry for this PC.
	for i := range set {
		if e := &set[i]; e.tag == pc {
			e.target = target
			b.touch(e)
			return
		}
	}
	// Second pass: prefer an invalid way, else the least recently used.
	victim := &set[0]
	for i := range set {
		e := &set[i]
		if e.tag == 0 {
			victim = e
			break
		}
		if e.stamp < victim.stamp {
			victim = e
		}
	}
	victim.tag = pc
	victim.target = target
	b.touch(victim)
}

// touch marks e most recently used.
func (b *BTB) touch(e *btbEntry) {
	b.clock++
	e.stamp = b.clock
}
