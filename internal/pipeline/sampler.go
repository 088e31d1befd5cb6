package pipeline

// Cycle sampling: a read-only observation hook on Sim.step that exposes
// the internal dynamics the paper's analysis (and ret2spec-style RSB
// studies) reason about — window pressure, speculation fan-out, stack
// depth over time — without perturbing simulation. The tracer in trace.go
// reports individual pipeline events; the sampler complements it with
// fixed-interval time series cheap enough for multi-hundred-cell sweeps.
//
// Cost contract: with no sampler installed, the hook is one nil check per
// cycle; determinism of simulated results is unaffected either way, since
// sampling only reads state.

// DefaultSampleEvery is the sampling interval the CLIs use when the user
// enables telemetry without choosing one.
const DefaultSampleEvery = 1024

// Sample is one fixed-interval snapshot of pipeline state.
type Sample struct {
	Cycle     uint64
	Committed uint64

	// Occupancies.
	RUUOccupancy int // register-update-unit entries in flight
	LSQOccupancy int // load-store-queue entries held
	FetchQLen    int // fetch-queue slots between fetch and dispatch
	LivePaths    int // fetch/execution contexts currently live

	// Return-address-stack state: depth of the architectural path's stack
	// (the shared stack under unified organizations) and checkpoint
	// pressure.
	RASDepth        int
	CheckpointsLive int // in-flight RAS checkpoints (shadow slots in use)

	// Cumulative squash/recovery counters, plus the deltas since the
	// previous sample so consumers can build rate series or counters
	// without keeping per-simulation state.
	Squashed      uint64
	Recoveries    uint64
	NewSquashed   uint64
	NewRecoveries uint64

	// Predecode-plane activity, summed over threads: fetches served from
	// the flat predecoded table vs. decoded from memory. Cumulative plus
	// since-last-sample deltas, like the squash counters above.
	PredecodeHits         uint64
	PredecodeFallbacks    uint64
	NewPredecodeHits      uint64
	NewPredecodeFallbacks uint64

	// Flat-overlay activity: spill-table engagements and pool reuses.
	// Cumulative plus deltas.
	OverlaySpills    uint64
	OverlayReuses    uint64
	NewOverlaySpills uint64
	NewOverlayReuses uint64

	// Basic-block dispatch activity, summed over threads (see
	// Stats.BlockHits/BlockBuilds/BlockInvalidations). Cumulative plus
	// deltas.
	BlockHits             uint64
	BlockBuilds           uint64
	BlockInvalidations    uint64
	NewBlockHits          uint64
	NewBlockBuilds        uint64
	NewBlockInvalidations uint64
}

// SetSampler installs fn to run every `every` cycles (every < 1 selects
// DefaultSampleEvery), and once more when a Run ends between sample
// points; nil removes the sampler. The function is called inline from the
// simulation loop and must not mutate simulator state.
func (s *Sim) SetSampler(every uint64, fn func(Sample)) {
	if every < 1 {
		every = DefaultSampleEvery
	}
	s.sampler = fn
	s.sampleEvery = every
	s.lastSquashed = s.stats.Squashed
	s.lastRecoveries = s.stats.Recoveries
	s.lastPredecodeHits, s.lastPredecodeFalls = s.predecodeCounters()
	s.lastOverlaySpills = s.overlaySpills
	s.lastOverlayReuses = s.overlayReuses
	s.lastBlockHits, s.lastBlockBuilds, s.lastBlockInvals = s.blockCounters()
}

// predecodeCounters sums the per-thread predecode counters.
func (s *Sim) predecodeCounters() (hits, falls uint64) {
	for _, th := range s.threads {
		hits += th.mach.PredecodeHits
		falls += th.mach.PredecodeFallbacks
	}
	return hits, falls
}

// blockCounters sums the per-thread basic-block dispatch counters.
func (s *Sim) blockCounters() (hits, builds, invals uint64) {
	for _, th := range s.threads {
		hits += th.mach.BlockHits
		builds += th.mach.BlockBuilds
		invals += th.mach.Mem.CodeInvalidations()
	}
	return hits, builds, invals
}

// takeSample builds and delivers one snapshot.
func (s *Sim) takeSample() {
	pdHits, pdFalls := s.predecodeCounters()
	blkHits, blkBuilds, blkInvals := s.blockCounters()
	sm := Sample{
		Cycle:           s.cycle,
		Committed:       s.stats.Committed,
		RUUOccupancy:    s.ruuCount,
		LSQOccupancy:    s.lsqCount,
		FetchQLen:       s.fetchQLen,
		LivePaths:       s.liveCount,
		RASDepth:        s.sampleRASDepth(),
		CheckpointsLive: s.shadowUsed,
		Squashed:        s.stats.Squashed,
		Recoveries:      s.stats.Recoveries,
		NewSquashed:     s.stats.Squashed - s.lastSquashed,
		NewRecoveries:   s.stats.Recoveries - s.lastRecoveries,

		PredecodeHits:         pdHits,
		PredecodeFallbacks:    pdFalls,
		NewPredecodeHits:      pdHits - s.lastPredecodeHits,
		NewPredecodeFallbacks: pdFalls - s.lastPredecodeFalls,

		OverlaySpills:    s.overlaySpills,
		OverlayReuses:    s.overlayReuses,
		NewOverlaySpills: s.overlaySpills - s.lastOverlaySpills,
		NewOverlayReuses: s.overlayReuses - s.lastOverlayReuses,

		BlockHits:             blkHits,
		BlockBuilds:           blkBuilds,
		BlockInvalidations:    blkInvals,
		NewBlockHits:          blkHits - s.lastBlockHits,
		NewBlockBuilds:        blkBuilds - s.lastBlockBuilds,
		NewBlockInvalidations: blkInvals - s.lastBlockInvals,
	}
	s.lastSquashed = sm.Squashed
	s.lastRecoveries = sm.Recoveries
	s.lastPredecodeHits = pdHits
	s.lastPredecodeFalls = pdFalls
	s.lastOverlaySpills = sm.OverlaySpills
	s.lastOverlayReuses = sm.OverlayReuses
	s.lastBlockHits = blkHits
	s.lastBlockBuilds = blkBuilds
	s.lastBlockInvals = blkInvals
	s.sampler(sm)
}

// sampleRASDepth reads the depth of the stack the architectural path is
// predicting from: the oldest live correct path's stack, falling back to
// the shared stack (configs without per-path stacks), then to any live
// path's stack. Returns 0 when the configuration has no RAS.
func (s *Sim) sampleRASDepth() int {
	for i := range s.paths {
		p := &s.paths[i]
		if p.live && p.correct && p.ras != nil {
			return p.ras.Depth()
		}
	}
	if s.sharedRAS != nil {
		return s.sharedRAS.Depth()
	}
	for i := range s.paths {
		p := &s.paths[i]
		if p.live && p.ras != nil {
			return p.ras.Depth()
		}
	}
	return 0
}
