// Package pipeline implements the cycle-level out-of-order processor model
// (HydraScalar-style): a 4-wide fetch engine that follows predictions
// through not-taken branches and stops at taken ones, dispatch/rename into
// a register update unit (RUU), issue to functional units, writeback with
// branch resolution and recovery, and in-order commit that updates the
// branch predictors.
//
// Mis-speculation is modeled the way the paper's simulator does:
// instructions execute functionally at dispatch; the first mispredicted
// branch on the correct path switches its path into speculative mode, and
// younger instructions execute against a copy-on-write overlay so the
// wrong path runs real code — fetching through calls and returns and
// thereby corrupting the return-address stack, which is the phenomenon
// under study. Resolution of the mispredicted branch squashes younger
// entries, redirects fetch, and repairs the stack per the configured
// policy.
//
// Multipath execution forks low-confidence conditional branches instead of
// predicting them: the parent path context follows the taken side, a new
// path context follows the fall-through, RUU entries carry path tags, and
// resolution selectively squashes the losing subtree ("these now-empty
// entries must still propagate to the front and be retired"). The
// return-address stack is either shared among paths (optionally with
// checkpoint repair) or copied per path at fork time.
package pipeline

import (
	"math/bits"

	"retstack/internal/bpred"
	"retstack/internal/core"
	"retstack/internal/emu"
	"retstack/internal/isa"
)

// invalidIdx marks an empty creator-table slot or absent dependency.
const invalidIdx = -1

// RUU lifecycle flags, kept in Sim.ruuState — a compact byte array parallel
// to the RUU ring — rather than as bools inside ruuEntry, so the stages
// that test an entry's lifecycle (dependency checks, load forwarding,
// squash and rebuild walks, commit) read one byte instead of a wide entry.
// Entry state tests compare against exact bit patterns: an unissued
// candidate is exactly ruuValid, an in-flight one exactly
// ruuValid|ruuIssued (squashed entries are always also completed). Those
// two patterns are mirrored in the Sim's waiting and inflight sets (see
// ruuSet), which issue and writeback walk instead of the whole ring.
const (
	ruuValid     uint8 = 1 << iota // slot holds a dispatched instruction
	ruuIssued                      // sent to a functional unit
	ruuCompleted                   // result available (or squashed)
	ruuSquashed                    // wrong-path work draining to commit
)

// ruuEntry is one slot of the register update unit: the fetch slot it was
// dispatched from, moved in whole, plus the state dispatch and the later
// stages fill in. Its lifecycle flags live in Sim.ruuState (see above).
type ruuEntry struct {
	fetchSlot
	ruuExec
}

// ruuExec is the part of an RUU entry that dispatch zeroes in place and
// the execution stages fill in.
type ruuExec struct {
	// Dependencies for issue timing: up to two producer RUU slots, guarded
	// by sequence number against slot recycling.
	depIdx [2]int
	depSeq [2]uint64

	destReg int

	completeAt uint64

	isLoad  bool
	isStore bool
	lsqHeld bool // occupies an LSQ slot until commit or squash
	memAddr uint32

	// Control-flow resolution state.
	isCtrl      bool
	actualNPC   uint32
	actualTaken bool
	mispred     bool // prediction != outcome, discovered at dispatch
	recovers    bool // resolution must trigger a squash/redirect

	// Multipath fork bookkeeping.
	loserToken  uint64 // set at dispatch: the side that must squash at resolve
	loserParent bool   // the losing side is the parent's continuation

	// Deferred architectural side effects (applied at commit).
	syscall    emu.SyscallCode
	syscallArg uint32

	execErr bool // wrong-path execution fault: entry is an effect-free bubble
}

// fetchSlot is one entry of the fetch queue between the fetch engine and
// dispatch, and the fetch-time half of an RUU entry. The front-end depth
// (Config.BranchLat) is modeled by readyAt. Dispatch copies the slot
// whole, so its fields are ordered by size to leave no padding. The slot
// holds no pointer, so the fetch queue and the RUU move with plain memory
// copies and the garbage collector never scans them.
type fetchSlot struct {
	seq        uint64 // fetch-order sequence number
	pathTok    uint64 // owning path's token (slots are recycled; tokens not)
	readyAt    uint64
	childToken uint64 // forked: token of the path created for the fall-through side

	// Direction-predictor history at prediction time (speculative-history
	// mode: commit trains these indices, recovery restores the registers).
	histSnap bpred.HistorySnapshot

	inst    isa.Inst
	pc      uint32
	predNPC uint32
	rasAux  uint32 // packed stack/slot the push wrote or pop read (see PackRASAux)
	// RAS shadow state for repair: a handle into Sim.cpTable, held while
	// hasCheckpoint is set and 0 (the never-valid entry) otherwise.
	checkpoint int32

	class         isa.Class
	predTaken     bool
	fromRAS       bool // return whose prediction came from the RAS
	rasPushed     bool // fetch pushed the RAS for this instruction
	rasPopped     bool // fetch popped the RAS for this instruction
	rasUnderflow  bool // the fetch-time pop read an empty stack
	hasCheckpoint bool
	forked        bool
}

// reset fills a ring slot for a newly fetched instruction. The slot is
// zeroed in place and then filled: assigning a non-zero composite literal
// through the pointer would build it in a temporary and copy it in. So
// would passing the instruction by value, which stops it on the stack.
func (sl *fetchSlot) reset(seq, pathTok uint64, pc uint32, in *isa.Inst, cl isa.Class, readyAt uint64) {
	*sl = fetchSlot{}
	sl.inst = *in
	sl.seq, sl.pathTok, sl.pc, sl.class, sl.readyAt = seq, pathTok, pc, cl, readyAt
	sl.predNPC = pc + isa.WordBytes
}

// ruuSet is a bitset over RUU slots. The Sim keeps two, waiting (state
// exactly ruuValid) and inflight (exactly ruuValid|ruuIssued), updated at
// every ruuState write that enters or leaves those states, so issue and
// writeback visit only their candidates instead of scanning the ring.
type ruuSet []uint64

func newRUUSet(n int) ruuSet { return make(ruuSet, (n+63)/64) }

func (b ruuSet) add(i int)      { b[i>>6] |= 1 << (i & 63) }
func (b ruuSet) remove(i int)   { b[i>>6] &^= 1 << (i & 63) }
func (b ruuSet) has(i int) bool { return b[i>>6]&(1<<(i&63)) != 0 }

// start begins an oldest-first walk over b's members. Members are always
// occupied slots, which lie in ring order from the head, so the walk takes
// the head's word from the head's bit up, the following words round the
// ring, and finally the head's word below the head's bit. It fills w in
// place: a returned walk would be built on the stack and copied.
func (w *ruuWalk) start(b ruuSet, head int) {
	h := head >> 6
	above := ^uint64(0) << (head & 63)
	w.set, w.word, w.cur, w.left, w.below = b, h, b[h]&above, len(b), ^above
}

// ruuWalk is an oldest-first walk over a ruuSet. Each word is read once,
// when the walk reaches it: a member removed from the current word after
// that is still visited, so a caller that removes members other than the
// one just visited must re-check each visited slot's state.
type ruuWalk struct {
	set   ruuSet
	word  int    // index of the word being walked
	cur   uint64 // its members not yet visited
	left  int    // words still to read
	below uint64 // mask for the head's word on the final read
}

// next returns the next member, or -1 when the walk is done.
func (w *ruuWalk) next() int {
	for w.cur == 0 {
		if w.left == 0 {
			return -1
		}
		w.left--
		if w.word++; w.word == len(w.set) {
			w.word = 0
		}
		w.cur = w.set[w.word]
		if w.left == 0 {
			w.cur &= w.below
		}
	}
	i := w.word<<6 + bits.TrailingZeros64(w.cur)
	w.cur &= w.cur - 1
	return i
}

// path is a fetch/execution context. Single-path operation uses exactly
// one; multipath forking and SMT use several (an SMT thread's context is
// its root path).
type path struct {
	id     int    // slot index
	token  uint64 // unique identity (slots are recycled)
	live   bool
	thread int // owning hardware thread (0 unless SMT)

	parentToken uint64 // 0 for the root path
	forkSeq     uint64 // seq of the branch that forked this path

	fetchPC      uint32
	fetchDead    bool   // context lost the fork it was following
	stalledUntil uint64 // icache miss
	lastLine     uint32 // last fetched I-cache line + 1 (0 = none)

	correct bool // dispatching architecturally (on the true path)
	overlay *emu.Overlay

	ras   core.ReturnStack // per-path stack, or the shared stack
	rasID uint16           // trace identity of ras: 0 = the shared stack,
	// per-thread and per-path clones get fresh ids so the attribution layer
	// never conflates slot indices across distinct physical stacks

	// creator maps architectural registers to the RUU slot of their newest
	// in-flight producer (guarded by seq).
	creatorIdx [isa.NumRegs]int
	creatorSeq [isa.NumRegs]uint64
}

func (p *path) resetCreators() {
	for i := range p.creatorIdx {
		p.creatorIdx[i] = invalidIdx
	}
}

// Stats aggregates everything the experiments report.
type Stats struct {
	Cycles        uint64
	Committed     uint64 // retired architectural instructions
	Fetched       uint64
	Squashed      uint64 // RUU entries squashed (wrong-path work)
	FastForwarded uint64 // instructions executed in warmup fast mode

	CommittedByClass [16]uint64

	// Conditional branches (committed).
	CondBranches   uint64
	CondMispred    uint64
	ForkedBranches uint64

	// Returns (committed).
	Returns        uint64
	ReturnsCorrect uint64
	ReturnsFromRAS uint64

	// Other indirect transfers (committed).
	Indirects        uint64
	IndirectsCorrect uint64

	// Recovery machinery.
	Recoveries        uint64
	PathsSquashed     uint64
	Forks             uint64
	CheckpointsDenied uint64 // shadow-slot exhaustion at checkpoint time

	// Wrong-path RAS activity: pushes/pops performed at fetch by
	// instructions that never committed.
	WrongPathPushes uint64
	WrongPathPops   uint64

	// RAS structural events, aggregated over every stack that existed
	// (per-path stacks die with their paths; their counts are folded in).
	RAS core.Stats

	// Predecode-plane effectiveness, summed over threads at the end of
	// Run: fetches served from the flat predecoded table vs. decoded from
	// memory (PC outside the code segment, or code region dirtied by a
	// store). Purely observational — the fetched instruction is identical
	// either way.
	PredecodeHits      uint64
	PredecodeFallbacks uint64

	// Basic-block dispatch activity, summed over threads at the end of Run:
	// block dispatches served from the plane's block table, descriptor
	// builds (first entries per machine, deterministic under image
	// sharing — see emu.Machine.BlockBuilds),
	// and code-region invalidations (clean→dirty transitions, each
	// of which stops block dispatch and predecode until reload). Purely
	// observational — results match the step-at-a-time reference
	// (TestFastPathsMatchReference).
	BlockHits          uint64
	BlockBuilds        uint64
	BlockInvalidations uint64

	// PerThreadCommitted breaks Committed down by SMT thread.
	PerThreadCommitted []uint64
}

// IPC returns committed instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// ReturnHitRate returns the fraction of committed returns whose predicted
// target was correct.
func (s *Stats) ReturnHitRate() float64 {
	if s.Returns == 0 {
		return 0
	}
	return float64(s.ReturnsCorrect) / float64(s.Returns)
}

// CondMispredRate returns the fraction of committed conditional branches
// that were mispredicted (forked branches are excluded: they were not
// predicted).
func (s *Stats) CondMispredRate() float64 {
	den := s.CondBranches - s.ForkedBranches
	if den == 0 {
		return 0
	}
	return float64(s.CondMispred) / float64(den)
}
