package pipeline

import (
	"fmt"

	"retstack/internal/bpred"
	"retstack/internal/cache"
	"retstack/internal/config"
	"retstack/internal/core"
	"retstack/internal/emu"
	"retstack/internal/isa"
	"retstack/internal/program"
)

// thread is one hardware thread context: its own architectural machine
// and drain state. Non-SMT configurations have exactly one.
type thread struct {
	id        int
	mach      *emu.Machine
	drainExit bool // exit syscall dispatched; stop dispatching this thread
	done      bool // exit committed
}

// Sim is one simulated machine instance running one program (or, under
// SMT, one program per hardware thread).
type Sim struct {
	cfg     config.Config
	threads []*thread
	mach    *emu.Machine // threads[0].mach (the single-thread fast path)

	hier    *cache.Hierarchy
	dirPred bpred.DirectionPredictor
	hybrid  *bpred.Hybrid // non-nil iff DirPred == DirHybrid
	btb     *bpred.BTB
	conf    *bpred.Confidence
	tcache  *bpred.TargetCache // allocated only when a role uses it

	sharedRAS core.ReturnStack // used when stacks are unified (or single-path)
	lockstep  *core.Lockstep   // sharedRAS, when the Sim carries a lockstep unit

	ruu      []ruuEntry
	ruuState []uint8 // lifecycle flags, parallel to ruu (see ruuValid)
	waiting  ruuSet  // slots whose state is exactly ruuValid
	inflight ruuSet  // slots whose state is exactly ruuValid|ruuIssued
	ruuHead  int     // oldest
	ruuTail  int     // next free
	ruuCount int
	lsqCount int

	fetchQ     []fetchSlot
	fetchQHead int
	fetchQLen  int

	paths      []path
	liveCount  int
	nextToken  uint64
	nextSeq    uint64
	nextRasID  uint16 // trace identity counter for distinct stacks (0 = shared)
	shadowUsed int

	// ovFree recycles flat wrong-path overlays the same way cpFree recycles
	// checkpoint buffers: a released path's overlay parks here and the next
	// fork draws from it, so steady-state forking allocates nothing.
	ovFree []*emu.Overlay

	// Squash scratch: tokens marked doomed by the current squash operation
	// (reused across squashes; paths are few, so membership is a linear
	// scan). stackSeen is the equivalent scratch for foldLiveStackStats.
	doomedToks []uint64
	stackSeen  []core.ReturnStack

	// cpFree recycles full-stack checkpoint backing buffers: released
	// checkpoints return their buffer here instead of keeping the stack
	// copy alive, and takeCheckpoint draws from it, so the steady state
	// allocates nothing and retains only as many buffers as there are
	// concurrently live checkpoints.
	cpFree [][]uint32

	misses []uint64 // completion cycles of outstanding data-cache misses

	cycle  uint64
	tracer Tracer
	stats  Stats
	done   bool
	runErr error

	// Flat-overlay machinery, purely observational and outside Stats
	// because it depends on the Recycler's history, not on the simulated
	// machine: reset epochs in which a wrong path's footprint overflowed
	// an overlay's inline slots into its spill table, and overlays served
	// from the pool instead of allocated. The sampler reports both.
	overlaySpills uint64
	overlayReuses uint64

	// Cycle sampling (see sampler.go). Disabled (nil sampler) costs one
	// nil check per cycle.
	sampler            func(Sample)
	sampleEvery        uint64
	disturbEvery       uint64
	disturbAddr        func(cycle uint64) uint32
	lastSquashed       uint64
	lastRecoveries     uint64
	lastPredecodeHits  uint64
	lastPredecodeFalls uint64
	lastOverlaySpills  uint64
	lastOverlayReuses  uint64
	lastBlockHits      uint64
	lastBlockBuilds    uint64
	lastBlockInvals    uint64

	maxInsts uint64
}

// New builds a simulator for the image under the given configuration. For
// SMT configurations the same image runs on every thread; use NewSMT to
// give each thread its own program.
func New(cfg config.Config, im *program.Image) (*Sim, error) {
	return NewWithRecycler(cfg, im, nil)
}

// NewSMT builds a simulator running one program per hardware thread. The
// number of images must match Config.SMTThreads (or be 1 when SMT is off).
func NewSMT(cfg config.Config, ims []*program.Image) (*Sim, error) {
	return newSMTWithRecycler(cfg, ims, nil)
}

// newSMTWithRecycler is NewSMT drawing bulk storage from a worker-local
// pool (nil behaves like NewSMT); see Recycler.
func newSMTWithRecycler(cfg config.Config, ims []*program.Image, r *Recycler) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	want := cfg.SMTThreads
	if want < 1 {
		want = 1
	}
	if len(ims) != want {
		return nil, fmt.Errorf("pipeline: %d images for %d threads", len(ims), want)
	}
	machs := make([]*emu.Machine, len(ims))
	for i, im := range ims {
		machs[i] = emu.NewMachine()
		machs[i].Load(im)
	}
	return newSim(cfg, machs, r), nil
}

// newSim builds a simulator for a validated configuration around one
// loaded machine per hardware thread, each fetching from its machine's PC,
// drawing bulk storage from r (nil allocates it).
func newSim(cfg config.Config, machs []*emu.Machine, r *Recycler) *Sim {
	if r == nil {
		r = NewRecycler() // an empty pool: everything is allocated fresh
	}
	s := &Sim{
		cfg:  cfg,
		hier: newHierarchy(cfg, &r.lines),
		btb:  bpred.NewBTB(cfg.BTBSets, cfg.BTBWays, &r.btbs),
		conf: newConfidence(cfg),

		ruu:      r.ruu.Take(cfg.RUUSize),
		ruuState: make([]uint8, cfg.RUUSize),
		waiting:  newRUUSet(cfg.RUUSize),
		inflight: newRUUSet(cfg.RUUSize),
		fetchQ:   r.slots.Take(cfg.FetchWidth * (cfg.BranchLat + 2)),
		cpFree:   r.takeBufs(),
		ovFree:   r.takeOverlays(),
	}
	s.dirPred, s.hybrid = newDirPred(cfg)

	nPaths := cfg.MaxPaths
	if len(machs) > nPaths {
		nPaths = len(machs)
	}
	s.paths = make([]path, nPaths)
	s.doomedToks = make([]uint64, 0, nPaths)
	s.stackSeen = make([]core.ReturnStack, 0, nPaths+1)
	s.stats.PerThreadCommitted = make([]uint64, len(machs))

	if cfg.ReturnPred == config.ReturnRAS {
		s.sharedRAS = cfg.NewReturnStack()
	}
	if cfg.IndirectPred == config.IndirectTargetCache || cfg.ReturnPred == config.ReturnTargetCache {
		s.tcache = bpred.NewTargetCache(cfg.TCSizeBits, cfg.TCHistBits)
	}

	// One thread context and root path per machine.
	for i, m := range machs {
		th := &thread{id: i, mach: m}
		s.threads = append(s.threads, th)

		root := &s.paths[i]
		root.id = i
		root.thread = i
		s.nextToken++
		root.token = s.nextToken
		root.live = true
		root.correct = true
		root.fetchPC = m.PC
		root.overlay = s.takeOverlay(m)
		root.resetCreators()
		if cfg.ReturnPred == config.ReturnRAS {
			if len(machs) > 1 && !cfg.SMTSharedRAS {
				root.ras = cfg.NewReturnStack() // per-thread stack
				s.nextRasID++
				root.rasID = s.nextRasID
			} else {
				root.ras = s.sharedRAS
			}
		}
		s.liveCount++
	}
	s.mach = s.threads[0].mach
	return s
}

// newHierarchy builds cfg's cache hierarchy, drawing the line arrays from
// pool.
func newHierarchy(cfg config.Config, pool *cache.Pool) *cache.Hierarchy {
	return cache.NewHierarchy(cache.HierarchyConfig{
		L1I: cache.Config{Name: "l1i", SizeBytes: cfg.L1I.SizeBytes, Ways: cfg.L1I.Ways,
			LineBytes: cfg.L1I.LineBytes, HitLatency: cfg.L1I.HitLatency},
		L1D: cache.Config{Name: "l1d", SizeBytes: cfg.L1D.SizeBytes, Ways: cfg.L1D.Ways,
			LineBytes: cfg.L1D.LineBytes, HitLatency: cfg.L1D.HitLatency},
		L2: cache.Config{Name: "l2", SizeBytes: cfg.L2.SizeBytes, Ways: cfg.L2.Ways,
			LineBytes: cfg.L2.LineBytes, HitLatency: cfg.L2.HitLatency},
		MemLatency: cfg.MemLatency,
	}, pool)
}

// newConfidence builds cfg's fork-confidence estimator.
func newConfidence(cfg config.Config) *bpred.Confidence {
	return bpred.NewConfidence(10, 4, cfg.ConfThreshold)
}

// newDirPred builds cfg's direction predictor, and returns it a second
// time as a hybrid when it is one.
func newDirPred(cfg config.Config) (bpred.DirectionPredictor, *bpred.Hybrid) {
	switch cfg.DirPred {
	case config.DirGShare:
		return bpred.NewGShare(cfg.GAgHistBits), nil
	case config.DirBimodal:
		return bpred.NewBimodal(1 << cfg.GAgHistBits), nil
	}
	h := bpred.NewHybridSized(cfg.GAgHistBits, cfg.PAgEntries, cfg.PAgHistBits, cfg.SelectorSize)
	return h, h
}

// pathByToken resolves a token to its live path context, or nil. Path slots
// are recycled but tokens never are, so a token match on a live slot is
// definitive. Paths are bounded by the fork limit (typically 1–4), making
// the linear scan cheaper than the map it replaced.
func (s *Sim) pathByToken(tok uint64) *path {
	for i := range s.paths {
		p := &s.paths[i]
		if p.live && p.token == tok {
			return p
		}
	}
	return nil
}

// takeOverlay returns a pooled overlay over m, or a fresh one when the
// pool is empty.
func (s *Sim) takeOverlay(m *emu.Machine) *emu.Overlay {
	if n := len(s.ovFree); n > 0 {
		o := s.ovFree[n-1]
		s.ovFree = s.ovFree[:n-1]
		o.SetSpillCounter(&s.overlaySpills)
		o.Rebase(m)
		s.overlayReuses++
		return o
	}
	o := emu.NewOverlay(m)
	o.SetSpillCounter(&s.overlaySpills)
	return o
}

// cloneOverlay returns an independent copy of src's speculative state over
// the same base, drawn from the pool when it can be.
func (s *Sim) cloneOverlay(src *emu.Overlay) *emu.Overlay {
	if n := len(s.ovFree); n > 0 {
		c := s.ovFree[n-1]
		s.ovFree = s.ovFree[:n-1]
		c.SetSpillCounter(&s.overlaySpills)
		c.CopyFrom(src)
		s.overlayReuses++
		return c
	}
	c := src.Clone()
	c.SetSpillCounter(&s.overlaySpills)
	return c
}

// recycleOverlay parks a no-longer-referenced overlay for reuse.
func (s *Sim) recycleOverlay(o *emu.Overlay) {
	s.ovFree = append(s.ovFree, o)
}

// threadOf returns the hardware thread owning a path.
func (s *Sim) threadOf(p *path) *thread { return s.threads[p.thread] }

// pathStack returns the stack a new path context should use: the shared
// stack under unified organizations, or a fresh/cloned stack per path.
func (s *Sim) pathStack(parent core.ReturnStack) core.ReturnStack {
	if s.cfg.ReturnPred != config.ReturnRAS {
		return nil
	}
	if s.cfg.MaxPaths <= 1 || s.cfg.MPStacks != config.MPPerPath {
		return s.sharedRAS
	}
	if parent == nil {
		return s.sharedRAS // root uses the primary stack
	}
	return parent.CloneStack()
}

// Stats returns the accumulated statistics.
func (s *Sim) Stats() *Stats { return &s.stats }

// Machine exposes thread 0's architectural machine (output, exit code,
// instruction mix).
func (s *Sim) Machine() *emu.Machine { return s.mach }

// ThreadMachine exposes one SMT thread's architectural machine.
func (s *Sim) ThreadMachine(i int) *emu.Machine { return s.threads[i].mach }

// Caches exposes the memory hierarchy for reporting.
func (s *Sim) Caches() *cache.Hierarchy { return s.hier }

// DirPredictor exposes the direction predictor (the hybrid carries its
// own statistics; the simple predictors do not).
func (s *Sim) DirPredictor() *bpred.Hybrid { return s.hybrid }

// BTB exposes BTB statistics.
func (s *Sim) BTB() *bpred.BTB { return s.btb }

// TargetCache exposes the target cache (nil unless configured).
func (s *Sim) TargetCache() *bpred.TargetCache { return s.tcache }

// Done reports whether the program has halted (exit committed).
func (s *Sim) Done() bool { return s.done }

// Run simulates until the program exits or maxInsts instructions have
// committed (0 = unbounded). It returns the first simulation error.
func (s *Sim) Run(maxInsts uint64) error {
	_, err := run(s, maxInsts)
	return err
}

// run is Run for a Sim that may carry a lockstep stack: such a run also
// stops at the end of a cycle in which the stack's members popped
// different targets, and reports that it did. Statistics are folded only
// when the run ends, so a run stopped at a fork point resumes with a
// further call as if it had never stopped.
func run(s *Sim, maxInsts uint64) (forked bool, _ error) {
	s.maxInsts = maxInsts
	// Hard backstop so a misconfigured machine cannot loop forever: no
	// real workload commits fewer than one instruction per 10k cycles.
	deadCycles := uint64(0)
	lastCommitted := uint64(0)
	for !s.done && s.runErr == nil {
		if maxInsts > 0 && s.stats.Committed >= maxInsts {
			break
		}
		if s.lockstep != nil && s.lockstep.Diverged() {
			return true, nil
		}
		s.step()
		if s.stats.Committed == lastCommitted {
			deadCycles++
			if deadCycles > 200_000 {
				return false, fmt.Errorf("pipeline: no commit progress for %d cycles at cycle %d (pc=%#x)",
					deadCycles, s.cycle, s.paths[0].fetchPC)
			}
		} else {
			deadCycles = 0
			lastCommitted = s.stats.Committed
		}
	}
	if s.runErr != nil {
		return false, s.runErr
	}
	// Fold per-path stack stats that are still live into the aggregate.
	s.foldLiveStackStats()
	s.foldPredecodeStats()
	s.foldBlockStats()
	return false, nil
}

// foldPredecodeStats snapshots the per-machine predecode counters into the
// aggregate stats (assignment, not accumulation, so repeated Run calls
// stay idempotent).
func (s *Sim) foldPredecodeStats() {
	var hits, falls uint64
	for _, th := range s.threads {
		hits += th.mach.PredecodeHits
		falls += th.mach.PredecodeFallbacks
	}
	s.stats.PredecodeHits, s.stats.PredecodeFallbacks = hits, falls
}

// foldBlockStats snapshots the per-machine basic-block dispatch counters
// into the aggregate stats (assignment, like foldPredecodeStats).
func (s *Sim) foldBlockStats() {
	s.stats.BlockHits, s.stats.BlockBuilds, s.stats.BlockInvalidations = s.blockCounters()
}

// step advances one cycle. Stages run commit-first so that a result
// produced in cycle N is visible to dependents in cycle N+1.
func (s *Sim) step() {
	s.stats.Cycles++
	s.commitStage()
	if s.done || s.runErr != nil {
		return
	}
	s.writebackStage()
	s.issueStage()
	s.dispatchStage()
	s.fetchStage()
	s.cycle++
	if s.disturbEvery != 0 && s.cycle%s.disturbEvery == 0 {
		s.disturb()
	}
	if s.sampler != nil && s.cycle%s.sampleEvery == 0 {
		s.takeSample()
	}
}

// SetDisturber installs a periodic RAS corruption source (the faultinject
// dev path): every `every` cycles the top entry of each live stack is
// overwritten with addr(cycle). Deterministic input gives deterministic
// results, so a disturbed run is exactly reproducible. Disabled (the
// default) it costs one comparison per cycle, mirroring the sampler.
func (s *Sim) SetDisturber(every uint64, addr func(cycle uint64) uint32) {
	if every == 0 || addr == nil {
		s.disturbEvery, s.disturbAddr = 0, nil
		return
	}
	s.disturbEvery, s.disturbAddr = every, addr
}

// disturb corrupts each distinct live stack's top entry. Stack kinds that
// do not support corruption (they lack core.Corruptible) are skipped. The
// duplicate scan is quadratic in live paths, which is bounded by the
// multipath fork limit (small), and runs only on disturb cycles.
func (s *Sim) disturb() {
	a := s.disturbAddr(s.cycle)
	for i := range s.paths {
		p := &s.paths[i]
		if !p.live || p.ras == nil {
			continue
		}
		dup := false
		for j := 0; j < i; j++ {
			if s.paths[j].live && s.paths[j].ras == p.ras {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		if c, ok := p.ras.(core.Corruptible); ok {
			c.CorruptTop(a)
			if s.tracer != nil {
				idx := -1
				if ins, ok := p.ras.(core.Inspector); ok {
					idx = ins.TOSIndex()
				}
				s.emitEvent(TraceRASCorrupt, 0, p.token, 0, isa.Inst{},
					a, PackRASAux(p.rasID, idx), 0)
			}
		}
	}
}

func (s *Sim) fail(format string, args ...interface{}) {
	if s.runErr == nil {
		s.runErr = fmt.Errorf("pipeline: "+format, args...)
	}
}

// foldLiveStackStats adds the structural counters of stacks still alive at
// the end of simulation into stats.RAS (dead paths folded at release time).
func (s *Sim) foldLiveStackStats() {
	if s.cfg.ReturnPred != config.ReturnRAS {
		return
	}
	s.stackSeen = s.stackSeen[:0]
	for i := range s.paths {
		p := &s.paths[i]
		if p.live && p.ras != nil && !s.stackSeenHas(p.ras) {
			s.stackSeen = append(s.stackSeen, p.ras)
			s.addStackStats(p.ras.Stats())
		}
	}
	if s.sharedRAS != nil && !s.stackSeenHas(s.sharedRAS) {
		s.addStackStats(s.sharedRAS.Stats())
	}
}

// stackSeenHas reports whether a stack was already folded this pass. Live
// paths are bounded by the fork limit, so the scratch slice stays tiny and
// the linear scan replaces a per-call map allocation.
func (s *Sim) stackSeenHas(r core.ReturnStack) bool {
	for _, q := range s.stackSeen {
		if q == r {
			return true
		}
	}
	return false
}

func (s *Sim) addStackStats(st *core.Stats) {
	s.stats.RAS.Pushes += st.Pushes
	s.stats.RAS.Pops += st.Pops
	s.stats.RAS.Overflows += st.Overflows
	s.stats.RAS.Underflows += st.Underflows
	s.stats.RAS.Restores += st.Restores
	s.stats.RAS.Corruptions += st.Corruptions
}
