package bpred

// DirectionPredictor predicts conditional-branch directions. Predict is
// called at fetch; Update at commit (in program order).
type DirectionPredictor interface {
	Predict(pc uint32) bool
	Update(pc uint32, taken bool)
}

// GAg is a two-level global-history predictor: a single global history
// register indexes a pattern history table of two-bit counters. The paper's
// baseline uses a 4K-entry GAg (12 bits of history).
type GAg struct {
	hist     uint32
	histMask uint32
	pht      *CounterTable
}

// NewGAg returns a GAg with 2^histBits pattern-history entries.
func NewGAg(histBits uint) *GAg {
	return &GAg{
		histMask: 1<<histBits - 1,
		pht:      NewCounterTable(1<<histBits, 2),
	}
}

// Predict implements DirectionPredictor.
func (g *GAg) Predict(pc uint32) bool { return g.pht.Taken(g.hist) }

// Update implements DirectionPredictor: trains the indexed counter, then
// shifts the outcome into the global history.
func (g *GAg) Update(pc uint32, taken bool) {
	g.pht.Update(g.hist, taken)
	g.hist = (g.hist<<1 | b2u(taken)) & g.histMask
}

// History exposes the committed global history (the hybrid's selector and
// the experiment harness read it).
func (g *GAg) History() uint32 { return g.hist }

// PAg is a two-level local-history predictor: a table of per-branch
// history registers indexes a shared pattern history table. The paper's
// baseline uses 1K local histories of 10 bits each.
type PAg struct {
	lht      []uint16 // local history table, indexed by pc
	histBits uint
	pht      *CounterTable
}

// NewPAg returns a PAg with lhtEntries per-branch histories of histBits
// bits and a 2^histBits-entry pattern table.
func NewPAg(lhtEntries int, histBits uint) *PAg {
	if lhtEntries <= 0 || lhtEntries&(lhtEntries-1) != 0 {
		panic("bpred: PAg local-history table size must be a power of two")
	}
	return &PAg{
		lht:      make([]uint16, lhtEntries),
		histBits: histBits,
		pht:      NewCounterTable(1<<histBits, 2),
	}
}

func (p *PAg) lhtIndex(pc uint32) uint32 {
	// Word-aligned PCs: drop the byte-offset bits before indexing.
	return (pc >> 2) & uint32(len(p.lht)-1)
}

// Predict implements DirectionPredictor.
func (p *PAg) Predict(pc uint32) bool {
	return p.pht.Taken(uint32(p.lht[p.lhtIndex(pc)]))
}

// Update implements DirectionPredictor.
func (p *PAg) Update(pc uint32, taken bool) {
	i := p.lhtIndex(pc)
	h := p.lht[i]
	p.pht.Update(uint32(h), taken)
	p.lht[i] = (h<<1 | uint16(b2u(taken))) & uint16(1<<p.histBits-1)
}

// Hybrid is the McFarling two-component predictor used by the paper's
// baseline: a GAg and a PAg, with a selector table of two-bit counters
// indexed by global history choosing the component more likely to be
// correct.
type Hybrid struct {
	gag      *GAg
	pag      *PAg
	selector *CounterTable

	// Per-prediction component outcomes are recomputed at update time from
	// committed state, since updates arrive in commit order with the same
	// history the fetch-time prediction used only when the front end ran
	// down the correct path. Recomputing keeps training self-consistent.
	Stats HybridStats
}

// HybridStats counts direction-prediction outcomes (filled by Update).
type HybridStats struct {
	Lookups   uint64
	Correct   uint64
	GAgChosen uint64
}

// NewHybrid returns the paper's baseline configuration: 4K GAg (12-bit
// history), 1K x 10-bit PAg, 4K-entry selector indexed by global history.
func NewHybrid() *Hybrid {
	return NewHybridSized(12, 1024, 10, 4096)
}

// NewHybridSized builds a hybrid with explicit geometry.
func NewHybridSized(gagHistBits uint, pagEntries int, pagHistBits uint, selectorEntries int) *Hybrid {
	return &Hybrid{
		gag:      NewGAg(gagHistBits),
		pag:      NewPAg(pagEntries, pagHistBits),
		selector: NewCounterTable(selectorEntries, 2),
	}
}

// CopyFrom gives h the trained state and statistics of src, a hybrid of
// the same geometry.
func (h *Hybrid) CopyFrom(src *Hybrid) {
	if len(h.pag.lht) != len(src.pag.lht) {
		panic("bpred: hybrid geometry mismatch")
	}
	h.gag.hist = src.gag.hist
	h.gag.pht.CopyFrom(src.gag.pht)
	copy(h.pag.lht, src.pag.lht)
	h.pag.pht.CopyFrom(src.pag.pht)
	h.selector.CopyFrom(src.selector)
	h.Stats = src.Stats
}

// Predict implements DirectionPredictor.
func (h *Hybrid) Predict(pc uint32) bool {
	if h.selector.Taken(h.gag.History()) {
		return h.gag.Predict(pc)
	}
	return h.pag.Predict(pc)
}

// Update implements DirectionPredictor: trains the selector toward the
// component that was correct (when they disagree), then both components.
func (h *Hybrid) Update(pc uint32, taken bool) { h.Train(pc, taken) }

// Train is Update returning what Predict would have said just before it:
// the prediction and the training in one pass over the tables, for a
// caller that needs both.
func (h *Hybrid) Train(pc uint32, taken bool) (predicted bool) {
	gagPred := h.gag.Predict(pc)
	pagPred := h.pag.Predict(pc)
	useGAg := h.selector.Taken(h.gag.History())
	chosen := pagPred
	if useGAg {
		chosen = gagPred
		h.Stats.GAgChosen++
	}
	h.Stats.Lookups++
	if chosen == taken {
		h.Stats.Correct++
	}
	if gagPred != pagPred {
		h.selector.Update(h.gag.History(), gagPred == taken)
	}
	// Order matters: PAg first would not, but GAg's Update shifts the
	// shared global history the selector indexes, so train selector (done
	// above) and PAg before advancing it.
	h.pag.Update(pc, taken)
	h.gag.Update(pc, taken)
	return chosen
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
