package pipeline

import (
	"fmt"
	"slices"

	"retstack/internal/bpred"
	"retstack/internal/cache"
	"retstack/internal/config"
	"retstack/internal/core"
	"retstack/internal/program"
)

// Simulate once, fork where the stacks disagree. A sweep that varies only
// the return stack (its repair policy, its depth, a top-K stack's K) runs
// machines whose pipelines are cycle-identical until two of their stacks
// first predict different targets for one return: a stack reaches the
// pipeline only through the targets its pops predict. A lockstep unit
// runs those machines as one Sim whose return stack is a core.Lockstep
// over each member's own stack (NewLockstep), until the members disagree
// (RunLockstep). There the Sim is copied once per further distinct
// target, each copy keeping the members that returned that target and
// re-predicting that return, and every copy runs on as a smaller unit.
// Each member's result is its carrier's Stats with RAS taken from the
// member's own stack (StatsOf). The Sim methods are unchanged: the unit
// machinery is package functions over them.

// Lockstepable reports whether a Sim for cfg can carry lockstep members.
// Only a single-path, single-thread machine with a checkpointed circular,
// top-K or linked stack, unbounded checkpoint slots and no target cache
// qualifies: under multipath or SMT a machine has several stacks; a
// valid-bits stack's pop validity, not only its target, steers fetch;
// bounded slots make the repair policy decide which branches get a
// checkpoint; and the target cache is predictor state NewFork does not
// copy.
func Lockstepable(cfg config.Config) bool {
	return cfg.ReturnPred == config.ReturnRAS && cfg.RASKind != config.RASValidBits &&
		cfg.MaxPaths <= 1 && cfg.SMTThreads <= 1 && cfg.ShadowSlots == 0 &&
		cfg.IndirectPred != config.IndirectTargetCache
}

// LockstepKey returns cfg without the fields lockstep members may differ
// in: the stack's depth, repair policy and K.
func LockstepKey(cfg config.Config) config.Config {
	cfg.RASEntries, cfg.RASPolicy, cfg.RASTopK = 0, 0, 0
	return cfg
}

// NewLockstep builds one Sim carrying a member per configuration, starting
// from the warm state from (nil: from reset) with bulk storage drawn from
// r. The configurations must be Lockstepable and share a LockstepKey;
// member i is named i (see Carried and StatsOf). With a warm state every
// member loads its stack snapshot, so all must share its warm key too.
func NewLockstep(cfgs []config.Config, im *program.Image, from *WarmState, r *Recycler) (*Sim, error) {
	lead := cfgs[0]
	members := make([]core.ReturnStack, len(cfgs))
	ids := make([]int, len(cfgs))
	for i, c := range cfgs {
		if err := c.Validate(); err != nil {
			return nil, err
		}
		if !Lockstepable(c) || LockstepKey(c) != LockstepKey(lead) {
			return nil, fmt.Errorf("pipeline: configuration %d cannot join this lockstep unit", i)
		}
		if from != nil && WarmKeyOf(c) != from.key {
			return nil, fmt.Errorf("pipeline: warm state was built for another warm key")
		}
		members[i], ids[i] = c.NewReturnStack(), i
		if from != nil && from.ras != nil {
			members[i].LoadSnapshot(from.ras)
		}
	}
	var s *Sim
	var err error
	if from != nil {
		s, err = NewFromWarm(lead, im, from, r)
	} else {
		s, err = NewWithRecycler(lead, im, r)
	}
	if err != nil {
		return nil, err
	}
	setLockstep(s, core.NewLockstep(members, ids))
	return s, nil
}

// setLockstep makes l the stack of s's single path.
func setLockstep(s *Sim, l *core.Lockstep) {
	s.lockstep, s.sharedRAS, s.paths[0].ras = l, l, l
}

// RunLockstep runs a Sim built by NewLockstep like Run, except that it
// also stops at the end of a cycle in which the members' pops returned
// different targets, unless the run is over anyway. There it splits the
// members by target: s keeps those that agree with its lead, and each
// other target gets a parked copy of s carrying its members, with that
// return re-predicted. It returns the copies (none when the run ended);
// run s and each copy on with RunLockstep until none is returned.
func RunLockstep(s *Sim, maxInsts uint64) ([]*Fork, error) {
	forked, err := run(s, maxInsts)
	if err != nil || !forked {
		return nil, err
	}
	groups := s.lockstep.Split()
	forks := make([]*Fork, len(groups)-1)
	for k, g := range groups[1:] {
		f := NewFork(s)
		setLockstep(f.sim, g)
		repredictReturn(f.sim)
		forks[k] = f
	}
	setLockstep(s, groups[0])
	return forks, nil
}

// repredictReturn points the return whose pop diverged at the target its
// new lead popped. Fetch stops at a return, and a lockstep machine has one
// path, so that return is the last instruction fetched in the cycle: the
// newest fetch-queue slot, with the path's fetch PC set from it.
func repredictReturn(s *Sim) {
	i := s.fetchQHead + s.fetchQLen - 1
	if i >= len(s.fetchQ) {
		i -= len(s.fetchQ)
	}
	slot := &s.fetchQ[i]
	if s.fetchQLen == 0 || !slot.rasPopped {
		panic("pipeline: a lockstep divergence without the popping return in the fetch queue")
	}
	target, ok := s.lockstep.LastPop()
	slot.predNPC, slot.rasUnderflow = target, !ok
	s.paths[0].fetchPC = target
}

// Carried returns the names of the members a Sim built by NewLockstep, or
// split from one, carries (nil for any other Sim).
func Carried(s *Sim) []int {
	if s.lockstep == nil {
		return nil
	}
	ids := make([]int, s.lockstep.Len())
	for k := range ids {
		_, ids[k] = s.lockstep.Member(k)
	}
	return ids
}

// StatsOf returns the statistics of the k-th member a Sim built by
// NewLockstep carries (in Carried order) after its run ended: the
// carrier's own, with RAS taken from the member's stack. Members of one
// carrier share its PerThreadCommitted slice.
func StatsOf(s *Sim, k int) Stats {
	st := s.stats
	m, _ := s.lockstep.Member(k)
	st.RAS = *m.Stats()
	return st
}

// Fork is a mid-run copy of a Sim, parked until a worker starts it. Its
// caches and BTB are held as compact snapshots (the lines and entries in
// use) rather than full arrays, so a queue of waiting copies stays small;
// Start gives them storage from the starting worker's Recycler.
type Fork struct {
	sim    *Sim
	caches cache.HierarchySnapshot
	btb    bpred.BTBSnapshot
}

// Carried returns the names of the lockstep members the parked copy
// carries.
func (f *Fork) Carried() []int { return Carried(f.sim) }

// NewFork copies s between cycles: a Sim started from the copy runs
// exactly as s runs from here. s must be a machine Lockstepable accepts,
// valid-bits stacks aside. The copy runs without a tracer, sampler or
// disturber. A lockstep Sim's copy gets its stack from RunLockstep's
// split; any other copy gets a copy of s's stack.
func NewFork(s *Sim) *Fork {
	if len(s.threads) != 1 || len(s.paths) != 1 || s.tcache != nil {
		panic("pipeline: only a single-path, single-thread machine without a target cache can be copied")
	}
	c := new(Sim)
	*c = *s // value fields; every reference field is replaced below

	th := *s.threads[0]
	th.mach = s.mach.Clone()
	c.threads = []*thread{&th}
	c.mach = th.mach

	c.dirPred, c.hybrid = newDirPred(s.cfg)
	switch d := c.dirPred.(type) {
	case *bpred.Hybrid:
		d.CopyFrom(s.hybrid)
	case *bpred.GShare:
		d.CopyFrom(s.dirPred.(*bpred.GShare))
	case *bpred.Bimodal:
		d.CopyFrom(s.dirPred.(*bpred.Bimodal))
	}
	c.conf = newConfidence(s.cfg)
	confSn := s.conf.Snapshot()
	c.conf.LoadSnapshot(&confSn)

	if s.lockstep == nil && s.sharedRAS != nil {
		c.sharedRAS = s.cfg.NewReturnStack()
		sn := s.sharedRAS.Snapshot()
		c.sharedRAS.LoadSnapshot(&sn)
	}

	c.ruu = slices.Clone(s.ruu)
	c.ruuState = slices.Clone(s.ruuState)
	c.waiting = slices.Clone(s.waiting)
	c.inflight = slices.Clone(s.inflight)
	c.fetchQ = slices.Clone(s.fetchQ)
	copyCheckpoints(c)
	c.misses = slices.Clone(s.misses)
	c.stats.PerThreadCommitted = slices.Clone(s.stats.PerThreadCommitted)

	c.paths = slices.Clone(s.paths)
	p := &c.paths[0]
	if p.overlay != nil {
		p.overlay = p.overlay.Clone()
		p.overlay.Retarget(c.mach)
		p.overlay.SetSpillCounter(&c.overlaySpills)
	}
	p.ras = c.sharedRAS

	c.doomedToks = make([]uint64, 0, cap(s.doomedToks))
	c.stackSeen = make([]core.ReturnStack, 0, cap(s.stackSeen))
	c.hier, c.btb, c.cpFree, c.ovFree = nil, nil, nil, nil
	c.tracer, c.sampler, c.disturbAddr = nil, nil, nil
	c.sampleEvery, c.disturbEvery = 0, 0
	return &Fork{sim: c, caches: s.hier.Snapshot(), btb: s.btb.Snapshot()}
}

// copyCheckpoints gives every checkpoint buffer of c's rings, which still
// alias the buffers of the Sim c was copied from, a copy of its own: a
// buffer has one owner. The copies are carved from one array.
func copyCheckpoints(c *Sim) {
	n := 0
	for i := range c.ruu {
		n += len(c.ruu[i].checkpoint.Buffer())
	}
	for i := range c.fetchQ {
		n += len(c.fetchQ[i].checkpoint.Buffer())
	}
	arena := make([]uint32, 0, n)
	for i := range c.ruu {
		arena = c.ruu[i].checkpoint.MoveBuffer(arena)
	}
	for i := range c.fetchQ {
		arena = c.fetchQ[i].checkpoint.MoveBuffer(arena)
	}
}

// Start returns the copy ready to run, its caches, BTB, rings and free
// lists drawn from r (nil allocates them). Call it once.
func (f *Fork) Start(r *Recycler) *Sim {
	if r == nil {
		r = NewRecycler()
	}
	s := f.sim
	f.sim = nil
	s.hier = newHierarchy(s.cfg, &r.lines)
	s.hier.LoadSnapshot(&f.caches)
	s.btb = bpred.NewBTB(s.cfg.BTBSets, s.cfg.BTBWays, &r.btbs)
	s.btb.LoadSnapshot(&f.btb)
	ruu := r.ruu.Take(len(s.ruu))
	copy(ruu, s.ruu)
	fq := r.slots.Take(len(s.fetchQ))
	copy(fq, s.fetchQ)
	s.ruu, s.fetchQ = ruu, fq
	s.cpFree, s.ovFree = r.takeBufs(), r.takeOverlays()
	return s
}
