package pipeline

import (
	"fmt"

	"retstack/internal/bpred"
	"retstack/internal/cache"
	"retstack/internal/config"
	"retstack/internal/core"
	"retstack/internal/emu"
	"retstack/internal/program"
)

// Warm once, fork per cell. A sweep measures many configurations of one
// workload after the same fast-forward, and FastForward reads only part of
// the configuration: the geometry of the caches, the BTB, the direction
// predictor and the return stack, and the predictor's update mode. Cells
// that agree on that part (their WarmKey) reach the same warm state, so a
// sweep fast-forwards each distinct key once (Warm) and starts each of its
// cells from a copy (NewFromWarm). FastForward stays the reference: a cell
// started from a warm state runs exactly as one that fast-forwarded itself
// (TestWarmCloneMatchesFastForward).

// WarmKey is the projection of a Config that FastForward reads. Pipeline
// widths, windows and latencies, the repair policy, checkpoint slots, the
// target cache, multipath and SMT sharing shape only cycle simulation;
// the confidence threshold and a top-K stack's K are read only there too.
// TestWarmKeyClassifiesEveryField holds every Config field to this split.
type WarmKey struct {
	threads          int
	l1i, l1d, l2     cacheShape
	btbSets, btbWays int

	dirPred      config.DirPredKind
	specHistory  bool
	gagHistBits  uint
	pagEntries   int
	pagHistBits  uint
	selectorSize int

	returnPred config.ReturnPredictor
	rasKind    config.RASKind
	rasEntries int
}

// cacheShape is a cache level's geometry; its hit latency is not warm
// state.
type cacheShape struct{ size, ways, line int }

func shapeOf(g config.CacheGeometry) cacheShape {
	return cacheShape{g.SizeBytes, g.Ways, g.LineBytes}
}

// WarmKeyOf returns cfg's warm key.
func WarmKeyOf(cfg config.Config) WarmKey {
	return WarmKey{
		threads: cfg.SMTThreads,
		l1i:     shapeOf(cfg.L1I), l1d: shapeOf(cfg.L1D), l2: shapeOf(cfg.L2),
		btbSets: cfg.BTBSets, btbWays: cfg.BTBWays,
		dirPred: cfg.DirPred, specHistory: cfg.SpecHistory,
		gagHistBits: cfg.GAgHistBits, pagEntries: cfg.PAgEntries,
		pagHistBits: cfg.PAgHistBits, selectorSize: cfg.SelectorSize,
		returnPred: cfg.ReturnPred, rasKind: cfg.RASKind, rasEntries: cfg.RASEntries,
	}
}

// WarmState is the frozen outcome of fast-forwarding one image under one
// WarmKey: the machine, compact snapshots of the caches and the BTB (the
// lines and entries in use, a few dozen of thousands), the direction
// predictor, the confidence counters, and the return stack's contents and
// counters without its repair policy. It holds nothing a configuration
// outside the key could change. Once Warm returns it is immutable, and
// any number of goroutines may start cells from it at once.
type WarmState struct {
	key    WarmKey
	im     *program.Image
	mach   *emu.Machine
	ffwd   uint64 // Stats.FastForwarded
	caches cache.HierarchySnapshot
	btb    bpred.BTBSnapshot
	dir    bpred.DirectionPredictor
	conf   bpred.ConfidenceSnapshot
	ras    *core.Snapshot // nil without a return stack
}

// Warm fast-forwards a single-thread machine for cfg on im n instructions
// (see FastForward) and freezes the result, drawing scratch storage from
// and returning it to r (nil allocates it). A fast-forward error is
// FastForward's.
func Warm(cfg config.Config, im *program.Image, n uint64, r *Recycler) (*WarmState, error) {
	s, err := NewWithRecycler(cfg, im, r)
	if err != nil {
		return nil, err
	}
	defer s.Release(r)
	if _, err := s.FastForward(n); err != nil {
		return nil, err
	}
	ws := &WarmState{
		key:    WarmKeyOf(cfg),
		im:     im,
		mach:   s.mach, // the Sim is discarded, so its machine is not copied
		ffwd:   s.stats.FastForwarded,
		caches: s.hier.Snapshot(),
		btb:    s.btb.Snapshot(),
		dir:    s.dirPred,
		conf:   s.conf.Snapshot(),
	}
	if s.sharedRAS != nil {
		sn := s.sharedRAS.Snapshot()
		ws.ras = &sn
	}
	return ws, nil
}

// NewFromWarm builds a simulator for cfg on im in the state FastForward
// would have left it in, copied from ws, drawing bulk storage from r (nil
// allocates it). cfg must share ws's WarmKey; everything outside the key,
// the repair policy included, is cfg's own.
func NewFromWarm(cfg config.Config, im *program.Image, ws *WarmState, r *Recycler) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if im != ws.im || WarmKeyOf(cfg) != ws.key {
		return nil, fmt.Errorf("pipeline: warm state was built for another image or warm key")
	}
	s := newSim(cfg, []*emu.Machine{ws.mach.Clone()}, r)
	s.stats.FastForwarded = ws.ffwd
	s.hier.LoadSnapshot(&ws.caches)
	s.btb.LoadSnapshot(&ws.btb)
	switch d := s.dirPred.(type) {
	case *bpred.Hybrid:
		d.CopyFrom(ws.dir.(*bpred.Hybrid))
	case *bpred.GShare:
		d.CopyFrom(ws.dir.(*bpred.GShare))
	case *bpred.Bimodal:
		d.CopyFrom(ws.dir.(*bpred.Bimodal))
	default:
		panic(fmt.Sprintf("pipeline: no warm copy for %T", d))
	}
	s.conf.LoadSnapshot(&ws.conf)
	if ws.ras != nil {
		s.sharedRAS.LoadSnapshot(ws.ras)
	}
	// As FastForward leaves a program that exited during the warm-up.
	if s.mach.Halted {
		s.threads[0].done = true
		s.done = true
	}
	return s, nil
}
