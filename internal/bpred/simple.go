package bpred

// Simple direction predictors used by the predictor-quality ablation: the
// repair mechanisms' value scales with how often the front end goes down a
// wrong path, so weaker predictors make the return-address stack's repair
// matter more.

// Bimodal is the classic Smith predictor: a PC-indexed table of two-bit
// saturating counters, no history.
type Bimodal struct {
	pht *CounterTable
}

// NewBimodal returns a bimodal predictor with size entries.
func NewBimodal(size int) *Bimodal {
	return &Bimodal{pht: NewCounterTable(size, 2)}
}

// CopyFrom gives b the trained state of src, a bimodal of the same size.
func (b *Bimodal) CopyFrom(src *Bimodal) { b.pht.CopyFrom(src.pht) }

// Predict implements DirectionPredictor.
func (b *Bimodal) Predict(pc uint32) bool { return b.pht.Taken(pc >> 2) }

// Update implements DirectionPredictor.
func (b *Bimodal) Update(pc uint32, taken bool) { b.pht.Update(pc>>2, taken) }

// GShare is McFarling's gshare: global history XORed into the PC index of
// one shared pattern table.
type GShare struct {
	hist     uint32
	histMask uint32
	pht      *CounterTable
}

// NewGShare returns a gshare predictor with 2^histBits entries.
func NewGShare(histBits uint) *GShare {
	return &GShare{
		histMask: 1<<histBits - 1,
		pht:      NewCounterTable(1<<histBits, 2),
	}
}

func (g *GShare) index(pc uint32) uint32 { return (pc >> 2 & g.histMask) ^ g.hist }

// CopyFrom gives g the trained state of src, a gshare of the same size.
func (g *GShare) CopyFrom(src *GShare) {
	g.hist = src.hist
	g.pht.CopyFrom(src.pht)
}

// Predict implements DirectionPredictor.
func (g *GShare) Predict(pc uint32) bool { return g.pht.Taken(g.index(pc)) }

// Update implements DirectionPredictor.
func (g *GShare) Update(pc uint32, taken bool) {
	g.pht.Update(g.index(pc), taken)
	g.hist = (g.hist<<1 | b2u(taken)) & g.histMask
}

var (
	_ DirectionPredictor = (*Bimodal)(nil)
	_ DirectionPredictor = (*GShare)(nil)
)
