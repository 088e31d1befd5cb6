// Package cache models the memory hierarchy: set-associative write-back
// caches with true-LRU replacement composed into a conventional two-level
// organization (split L1 instruction/data caches over a unified L2 over
// main memory).
//
// The timing model is access-latency based: Access returns the number of
// cycles the reference takes, accumulating each level's hit latency down
// to the level that serves the line. Write-backs of dirty victims are
// performed for state correctness and counted, but are assumed buffered
// (they add no latency) — the usual write-buffer simplification.
package cache

import (
	"fmt"

	"retstack/internal/slicepool"
)

// Level is anything that can serve a memory reference: a cache or memory.
type Level interface {
	// Access performs a reference to addr, returning its latency in cycles.
	Access(addr uint32, write bool) int
	// Name identifies the level in statistics output.
	Name() string
}

// MainMemory is the fixed-latency DRAM at the bottom of the hierarchy.
type MainMemory struct {
	Latency  int
	Accesses uint64
}

// NewMainMemory returns memory with the given access latency.
func NewMainMemory(latency int) *MainMemory { return &MainMemory{Latency: latency} }

// Access implements Level.
func (m *MainMemory) Access(addr uint32, write bool) int {
	m.Accesses++
	return m.Latency
}

// Name implements Level.
func (m *MainMemory) Name() string { return "mem" }

// Stats holds per-cache reference counts.
type Stats struct {
	Accesses   uint64
	Misses     uint64
	WriteBacks uint64
}

// MissRate returns misses per access.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is one set-associative write-back, write-allocate cache level.
type Cache struct {
	name       string
	sets       int
	ways       int
	lineShift  uint
	hitLatency int
	next       Level

	lines []line // sets*ways, a set's ways adjacent
	clock uint64

	stats Stats
}

// line is one cache line's state.
type line struct {
	tag   uint32 // line address (addr >> lineShift)
	valid bool
	dirty bool
	stamp uint64 // last-use time; the least in a set is the LRU victim
}

// Pool recycles line arrays between caches built one after another (see
// New and Hierarchy.Release).
type Pool = slicepool.Pool[line]

// Config describes one cache level.
type Config struct {
	Name       string
	SizeBytes  int
	Ways       int
	LineBytes  int
	HitLatency int
}

// New builds a cache over the given next level, drawing its line array
// from pool (nil allocates it).
func New(cfg Config, next Level, pool *Pool) *Cache {
	if cfg.LineBytes <= 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic("cache: line size must be a power of two")
	}
	if cfg.Ways <= 0 || cfg.SizeBytes <= 0 {
		panic("cache: size and associativity must be positive")
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	if lines == 0 || lines%cfg.Ways != 0 {
		panic("cache: size/line/ways geometry does not divide evenly")
	}
	sets := lines / cfg.Ways
	if sets&(sets-1) != 0 {
		panic("cache: set count must be a power of two")
	}
	shift := uint(0)
	for 1<<shift != cfg.LineBytes {
		shift++
	}
	return &Cache{
		name:       cfg.Name,
		sets:       sets,
		ways:       cfg.Ways,
		lineShift:  shift,
		hitLatency: cfg.HitLatency,
		next:       next,
		lines:      pool.Take(lines),
	}
}

// Name implements Level.
func (c *Cache) Name() string { return c.name }

// Stats returns the cache's counters.
func (c *Cache) Stats() Stats { return c.stats }

// LineBytes returns the line size.
func (c *Cache) LineBytes() int { return 1 << c.lineShift }

// Probe reports whether addr would hit, without touching cache state or
// statistics (used by the pipeline's MSHR bookkeeping).
func (c *Cache) Probe(addr uint32) bool {
	tag := addr >> c.lineShift
	set := c.set(tag)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// set returns the ways of the set a line address maps to.
func (c *Cache) set(tag uint32) []line {
	base := (int(tag) & (c.sets - 1)) * c.ways
	return c.lines[base : base+c.ways : base+c.ways]
}

// Access implements Level.
func (c *Cache) Access(addr uint32, write bool) int {
	c.stats.Accesses++
	tag := addr >> c.lineShift
	set := c.set(tag)

	for i := range set {
		if l := &set[i]; l.valid && l.tag == tag {
			c.clock++
			l.stamp = c.clock
			if write {
				l.dirty = true
			}
			return c.hitLatency
		}
	}

	// Miss: fetch the line from below (write-allocate), evicting LRU.
	c.stats.Misses++
	latency := c.hitLatency + c.next.Access(addr, false)

	victim := &set[0]
	for i := range set {
		l := &set[i]
		if !l.valid {
			victim = l
			break
		}
		if l.stamp < victim.stamp {
			victim = l
		}
	}
	if victim.valid && victim.dirty {
		c.stats.WriteBacks++
		// Buffered write-back: state change at the next level, no latency.
		c.next.Access(victim.tag<<c.lineShift, true)
	}
	c.clock++
	*victim = line{tag: tag, valid: true, dirty: write, stamp: c.clock}
	return latency
}

// Hierarchy is the baseline two-level organization.
type Hierarchy struct {
	L1I *Cache
	L1D *Cache
	L2  *Cache
	Mem *MainMemory
}

// HierarchyConfig sizes every level.
type HierarchyConfig struct {
	L1I, L1D, L2 Config
	MemLatency   int
}

// NewHierarchy wires L1I and L1D over a unified L2 over main memory,
// drawing the line arrays from pool (nil allocates them).
func NewHierarchy(cfg HierarchyConfig, pool *Pool) *Hierarchy {
	mem := NewMainMemory(cfg.MemLatency)
	l2 := New(cfg.L2, mem, pool)
	return &Hierarchy{
		L1I: New(cfg.L1I, l2, pool),
		L1D: New(cfg.L1D, l2, pool),
		L2:  l2,
		Mem: mem,
	}
}

// Release returns the hierarchy's line arrays to pool. Its statistics and
// geometry stay readable; it must not be accessed again.
func (h *Hierarchy) Release(pool *Pool) {
	for _, c := range [...]*Cache{h.L1I, h.L1D, h.L2} {
		pool.Put(c.lines)
		c.lines = nil
	}
}

// String summarizes the hierarchy's statistics.
func (h *Hierarchy) String() string {
	f := func(c *Cache) string {
		s := c.Stats()
		return fmt.Sprintf("%s: %d accesses, %.2f%% miss", c.Name(), s.Accesses, 100*s.MissRate())
	}
	return f(h.L1I) + "; " + f(h.L1D) + "; " + f(h.L2)
}
