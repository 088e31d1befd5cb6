// Package bpred implements the control-flow prediction structures of the
// baseline processor: two-bit saturating counters, GAg and PAg two-level
// direction predictors, the McFarling hybrid with a global-history-indexed
// selector, a decoupled taken-only branch target buffer, and a JRS-style
// confidence estimator used to choose fork points under multipath
// execution.
//
// Following the paper ("SimpleScalar updates the branch-prediction state
// during the instruction-commit stage"), all Update methods are called at
// commit; fetch-time predictions therefore use committed history. The
// return-address stack (package core) is the only speculatively updated
// predictor structure — exactly the asymmetry the paper studies.
package bpred

// CounterTable is a table of n-bit saturating up/down counters.
type CounterTable struct {
	counters []uint8
	max      uint8
}

// NewCounterTable returns a table with size entries of the given bit width
// (1..8), initialized to the weakly-taken midpoint.
func NewCounterTable(size int, bits uint) *CounterTable {
	t := NewCounterTableInit(size, bits, 1<<(bits-1)) // weakly taken
	return t
}

// NewCounterTableInit returns a table initialized to the given value
// (clamped to the counter range). Confidence estimators start at zero.
func NewCounterTableInit(size int, bits uint, init uint8) *CounterTable {
	if size <= 0 || size&(size-1) != 0 {
		panic("bpred: counter table size must be a positive power of two")
	}
	if bits < 1 || bits > 8 {
		panic("bpred: counter bits out of range")
	}
	t := &CounterTable{counters: make([]uint8, size), max: uint8(1<<bits - 1)}
	if init > t.max {
		init = t.max
	}
	for i := range t.counters {
		t.counters[i] = init
	}
	return t
}

// CopyFrom overwrites t's counters with src's; the tables must be the
// same size and width.
func (t *CounterTable) CopyFrom(src *CounterTable) {
	if len(t.counters) != len(src.counters) || t.max != src.max {
		panic("bpred: counter table shape mismatch")
	}
	copy(t.counters, src.counters)
}

// Size returns the number of entries.
func (t *CounterTable) Size() int { return len(t.counters) }

func (t *CounterTable) index(i uint32) uint32 { return i & uint32(len(t.counters)-1) }

// Taken reports the prediction of entry i (counter in the upper half).
func (t *CounterTable) Taken(i uint32) bool {
	return t.counters[t.index(i)] > t.max/2
}

// Value returns the raw counter at i.
func (t *CounterTable) Value(i uint32) uint8 { return t.counters[t.index(i)] }

// Update trains entry i toward the outcome.
func (t *CounterTable) Update(i uint32, taken bool) {
	c := &t.counters[t.index(i)]
	if taken {
		if *c < t.max {
			*c++
		}
	} else if *c > 0 {
		*c--
	}
}

// Reset sets entry i to v (saturating at the table's max), used by
// resetting confidence counters.
func (t *CounterTable) Reset(i uint32, v uint8) {
	if v > t.max {
		v = t.max
	}
	t.counters[t.index(i)] = v
}
