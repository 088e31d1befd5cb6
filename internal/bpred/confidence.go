package bpred

import "slices"

// Confidence is a JRS-style confidence estimator (Jacobsen, Rotenberg &
// Smith): a table of resetting counters indexed by branch PC. A correct
// prediction increments the branch's counter (saturating); a misprediction
// resets it to zero. A branch is "high confidence" when its counter is at
// or above the threshold. Multipath processors fork on low-confidence
// branches — the dynamic fork heuristic the paper cites.
type Confidence struct {
	table     *CounterTable
	threshold uint8

	Stats ConfidenceStats
}

// ConfidenceStats counts estimates by class.
type ConfidenceStats struct {
	Queries uint64
	High    uint64
}

// NewConfidence returns an estimator with 2^sizeBits counters of the given
// width and threshold.
func NewConfidence(sizeBits, counterBits uint, threshold uint8) *Confidence {
	return &Confidence{
		table:     NewCounterTableInit(1<<sizeBits, counterBits, 0),
		threshold: threshold,
	}
}

// NewDefaultConfidence matches the common JRS configuration: 1K 4-bit
// resetting counters with a threshold of 8.
func NewDefaultConfidence() *Confidence { return NewConfidence(10, 4, 8) }

func (c *Confidence) index(pc uint32) uint32 { return pc >> 2 }

// ConfidenceSnapshot is an estimator's trained state: its counters and
// statistics, without the threshold, which belongs to the machine that
// reads the counters.
type ConfidenceSnapshot struct {
	counters []uint8
	stats    ConfidenceStats
}

// Snapshot captures the estimator's trained state.
func (c *Confidence) Snapshot() ConfidenceSnapshot {
	return ConfidenceSnapshot{slices.Clone(c.table.counters), c.Stats}
}

// LoadSnapshot gives an estimator of the snapshot's size the snapshot's
// state; its own threshold is kept.
func (c *Confidence) LoadSnapshot(sn *ConfidenceSnapshot) {
	if len(c.table.counters) != len(sn.counters) {
		panic("bpred: confidence snapshot size mismatch")
	}
	copy(c.table.counters, sn.counters)
	c.Stats = sn.stats
}

// High reports whether the branch at pc is predicted with high confidence.
func (c *Confidence) High(pc uint32) bool {
	c.Stats.Queries++
	if c.table.Value(c.index(pc)) >= c.threshold {
		c.Stats.High++
		return true
	}
	return false
}

// Update trains the estimator with the resolved outcome of the branch's
// direction prediction.
func (c *Confidence) Update(pc uint32, predictionCorrect bool) {
	if predictionCorrect {
		c.table.Update(c.index(pc), true)
	} else {
		c.table.Reset(c.index(pc), 0)
	}
}
