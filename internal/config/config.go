// Package config describes the simulated machine. The defaults reproduce
// the paper's Table 1 baseline, "loosely modeled after the reported
// configuration of an Alpha 21264": a 4-wide out-of-order core with a
// 64-entry register update unit (RUU), a 32-entry load-store queue, a
// McFarling-style hybrid direction predictor (4K GAg + 1K x 10-bit PAg with
// a 4K global-history-indexed selector), a decoupled taken-only BTB, a
// 32-entry return-address stack, and a conventional two-level cache
// hierarchy.
package config

import (
	"fmt"

	"retstack/internal/core"
)

// ReturnPredictor selects how procedure returns are predicted.
type ReturnPredictor uint8

const (
	// ReturnRAS predicts returns from the return-address stack (default).
	ReturnRAS ReturnPredictor = iota
	// ReturnBTBOnly predicts returns from the BTB alone — the paper's
	// Table 4 configuration (no return-address stack at all).
	ReturnBTBOnly
	// ReturnTargetCache predicts returns from a Chang/Hao/Patt target
	// cache (returns are "a special case of indirect branch"); the paper
	// notes such history mechanisms cannot reach RAS accuracy.
	ReturnTargetCache
)

func (r ReturnPredictor) String() string {
	switch r {
	case ReturnBTBOnly:
		return "btb-only"
	case ReturnTargetCache:
		return "target-cache"
	}
	return "ras"
}

// DirPredKind selects the conditional-branch direction predictor.
type DirPredKind uint8

const (
	// DirHybrid is the paper's McFarling hybrid (default).
	DirHybrid DirPredKind = iota
	// DirGShare is a single gshare table.
	DirGShare
	// DirBimodal is a PC-indexed two-bit table (Smith).
	DirBimodal
)

var dirNames = []string{"hybrid", "gshare", "bimodal"}

func (d DirPredKind) String() string {
	if int(d) < len(dirNames) {
		return dirNames[d]
	}
	return fmt.Sprintf("dir(%d)", uint8(d))
}

// IndirectPredictor selects how non-return indirect jumps and calls are
// target-predicted.
type IndirectPredictor uint8

const (
	// IndirectBTB uses the BTB's last-seen target (default, the paper's
	// baseline).
	IndirectBTB IndirectPredictor = iota
	// IndirectTargetCache uses the history-indexed target cache.
	IndirectTargetCache
)

func (i IndirectPredictor) String() string {
	if i == IndirectTargetCache {
		return "target-cache"
	}
	return "btb"
}

// RASKind selects the stack implementation.
type RASKind uint8

const (
	// RASCircular is the conventional circular stack with the configured
	// checkpoint/repair policy (the paper's main subject).
	RASCircular RASKind = iota
	// RASLinked is the Jourdan-style self-checkpointing linked stack
	// (pointer-only checkpoints, more physical entries).
	RASLinked
	// RASTopK is the circular stack with generalized top-K checkpointing
	// (K = 0 pointer-only, K = 1 the paper's proposal, K = size full).
	RASTopK
	// RASValidBits is the Pentium MMX/II-style tagged stack: wrong-path
	// pushes are identified by branch tags and invalidated on recovery; no
	// shadow checkpoints are kept.
	RASValidBits
)

func (k RASKind) String() string {
	switch k {
	case RASLinked:
		return "linked"
	case RASTopK:
		return "top-k"
	case RASValidBits:
		return "valid-bits"
	}
	return "circular"
}

// MultipathRAS selects the stack organization under multipath execution.
type MultipathRAS uint8

const (
	// MPUnified: one stack shared by all concurrent paths, no repair —
	// contention corrupts it (the paper's worst case).
	MPUnified MultipathRAS = iota
	// MPUnifiedRepair: one shared stack with checkpoint repair on forks
	// and mispredictions (helps, but contention remains).
	MPUnifiedRepair
	// MPPerPath: each path context gets its own copy of the stack at fork
	// time — eliminates contention (the paper's recommendation).
	MPPerPath
)

var mpNames = []string{"unified", "unified+repair", "per-path"}

func (m MultipathRAS) String() string {
	if int(m) < len(mpNames) {
		return mpNames[m]
	}
	return fmt.Sprintf("mp(%d)", uint8(m))
}

// CacheGeometry sizes one cache level.
type CacheGeometry struct {
	SizeBytes  int
	Ways       int
	LineBytes  int
	HitLatency int
}

// Config is the full machine description.
type Config struct {
	// Core widths and windows.
	FetchWidth  int
	DecodeWidth int
	IssueWidth  int
	CommitWidth int
	RUUSize     int
	LSQSize     int

	// Functional units.
	IntALUs   int
	IntMults  int
	MemPorts  int
	MulLat    int
	DivLat    int
	BranchLat int // extra pipeline stages between fetch and execute
	// (models the front-end depth; sets the minimum
	// misprediction penalty)

	// SpecHistory switches the direction predictor to speculative history
	// update at fetch with checkpoint repair on misprediction (as in the
	// Alpha 21264), instead of the paper's commit-time update. Counter
	// training still happens at commit. Single-path only.
	SpecHistory bool

	// Direction predictor selection and geometry.
	DirPred      DirPredKind
	GAgHistBits  uint
	PAgEntries   int
	PAgHistBits  uint
	SelectorSize int

	// BTB geometry (decoupled, taken-branches only).
	BTBSets int
	BTBWays int

	// Indirect-jump target prediction.
	IndirectPred IndirectPredictor
	// Target-cache geometry (used by either predictor role above).
	TCSizeBits uint
	TCHistBits uint

	// Return prediction.
	ReturnPred  ReturnPredictor
	RASKind     RASKind
	RASEntries  int               // logical entries (physical for linked)
	RASPolicy   core.RepairPolicy // repair mechanism under test
	RASTopK     int               // checkpointed entries for RASTopK
	ShadowSlots int               // max in-flight checkpoints (0 = unbounded)

	// Caches.
	L1I        CacheGeometry
	L1D        CacheGeometry
	L2         CacheGeometry
	MemLatency int
	// MSHRs bounds outstanding data-cache misses (memory-level
	// parallelism); 0 models an unbounded miss queue.
	MSHRs int

	// Multipath execution. MaxPaths=1 disables forking (single-path).
	MaxPaths      int
	MPStacks      MultipathRAS
	ConfThreshold uint8 // JRS confidence threshold for forking

	// Simultaneous multithreading. SMTThreads=1 disables it; with more,
	// each thread runs its own program and the front end round-robins
	// among thread contexts. Mutually exclusive with multipath forking.
	SMTThreads int
	// SMTSharedRAS shares one return-address stack among all threads
	// (interleaved calls/returns corrupt it — Hily & Seznec's negative
	// result); false gives each thread its own stack.
	SMTSharedRAS bool
}

// Baseline returns the paper's Table 1 machine.
func Baseline() Config {
	return Config{
		FetchWidth:  4,
		DecodeWidth: 4,
		IssueWidth:  4,
		CommitWidth: 4,
		RUUSize:     64,
		LSQSize:     32,

		IntALUs:   4,
		IntMults:  1,
		MemPorts:  2,
		MulLat:    3,
		DivLat:    12,
		BranchLat: 3,

		GAgHistBits:  12,
		PAgEntries:   1024,
		PAgHistBits:  10,
		SelectorSize: 4096,

		BTBSets: 512,
		BTBWays: 4,

		IndirectPred: IndirectBTB,
		TCSizeBits:   10,
		TCHistBits:   8,

		ReturnPred:  ReturnRAS,
		RASKind:     RASCircular,
		RASEntries:  32,
		RASPolicy:   core.RepairNone,
		ShadowSlots: 0,

		L1I:        CacheGeometry{SizeBytes: 64 << 10, Ways: 2, LineBytes: 32, HitLatency: 1},
		L1D:        CacheGeometry{SizeBytes: 64 << 10, Ways: 2, LineBytes: 32, HitLatency: 1},
		L2:         CacheGeometry{SizeBytes: 1 << 20, Ways: 4, LineBytes: 64, HitLatency: 12},
		MemLatency: 80,
		MSHRs:      8,

		MaxPaths:      1,
		MPStacks:      MPPerPath,
		ConfThreshold: 8,

		SMTThreads: 1,
	}
}

// WithPolicy returns a copy with the given RAS repair policy.
func (c Config) WithPolicy(p core.RepairPolicy) Config {
	c.RASPolicy = p
	return c
}

// WithRASEntries returns a copy with the given stack depth.
func (c Config) WithRASEntries(n int) Config {
	c.RASEntries = n
	return c
}

// WithMultipath returns a copy configured for multipath execution.
func (c Config) WithMultipath(paths int, stacks MultipathRAS) Config {
	c.MaxPaths = paths
	c.MPStacks = stacks
	return c
}

// Validate reports the first configuration error, if any.
func (c Config) Validate() error {
	switch {
	case c.FetchWidth <= 0 || c.DecodeWidth <= 0 || c.IssueWidth <= 0 || c.CommitWidth <= 0:
		return fmt.Errorf("config: pipeline widths must be positive")
	case c.RUUSize <= 0:
		return fmt.Errorf("config: RUU size must be positive")
	case c.LSQSize <= 0:
		return fmt.Errorf("config: LSQ size must be positive")
	case c.IntALUs <= 0 || c.MemPorts <= 0:
		return fmt.Errorf("config: need at least one ALU and one memory port")
	case c.ReturnPred == ReturnRAS && c.RASEntries <= 0:
		return fmt.Errorf("config: RAS enabled but RASEntries = %d", c.RASEntries)
	case c.BTBSets <= 0 || c.BTBSets&(c.BTBSets-1) != 0:
		return fmt.Errorf("config: BTB sets must be a power of two")
	case c.MaxPaths < 1:
		return fmt.Errorf("config: MaxPaths must be at least 1")
	case c.ShadowSlots < 0:
		return fmt.Errorf("config: ShadowSlots cannot be negative")
	case c.SpecHistory && c.MaxPaths > 1:
		return fmt.Errorf("config: SpecHistory is single-path only (per-path history is not modeled)")
	case c.RASKind == RASTopK && (c.RASTopK < 0 || c.RASTopK > c.RASEntries):
		return fmt.Errorf("config: RASTopK %d out of range [0,%d]", c.RASTopK, c.RASEntries)
	case c.SMTThreads > 1 && c.MaxPaths > 1:
		return fmt.Errorf("config: SMT and multipath forking are mutually exclusive")
	case c.SMTThreads > 1 && c.SpecHistory:
		return fmt.Errorf("config: SpecHistory with SMT is not modeled (shared history register)")
	case c.SMTThreads < 0:
		return fmt.Errorf("config: SMTThreads cannot be negative")
	case c.SpecHistory && c.DirPred != DirHybrid:
		return fmt.Errorf("config: SpecHistory requires the hybrid predictor")
	case c.MSHRs < 0:
		return fmt.Errorf("config: MSHRs cannot be negative")
	}
	return nil
}

// NewReturnStack builds the configured stack implementation.
func (c Config) NewReturnStack() core.ReturnStack {
	switch c.RASKind {
	case RASLinked:
		return core.NewLinkedStack(c.RASEntries)
	case RASTopK:
		return core.NewTopKStack(c.RASEntries, c.RASTopK)
	case RASValidBits:
		return core.NewTaggedStack(c.RASEntries)
	}
	return core.NewStack(c.RASEntries, c.RASPolicy)
}

// Describe renders the configuration as the paper's Table 1-style listing.
func (c Config) Describe() string {
	return fmt.Sprintf(`Fetch/decode/issue/commit width  %d/%d/%d/%d
RUU (instruction window)         %d entries
Load-store queue                 %d entries
Functional units                 %d int ALU, %d int mul/div, %d mem ports
Direction predictor              hybrid: %dK GAg + %d x %d-bit PAg, %dK selector
BTB                              %d sets x %d ways, decoupled (taken only)
Return predictor                 %s
Return-address stack             %d entries (%s), repair: %s, shadow slots: %s
L1 I-cache                       %dKB %d-way %dB lines
L1 D-cache                       %dKB %d-way %dB lines
L2 unified                       %dKB %d-way %dB lines
Memory latency                   %d cycles, %s MSHRs
Multipath                        %d path(s), stacks: %s, conf threshold %d
Predictor update                 %s`,
		c.FetchWidth, c.DecodeWidth, c.IssueWidth, c.CommitWidth,
		c.RUUSize, c.LSQSize,
		c.IntALUs, c.IntMults, c.MemPorts,
		1<<c.GAgHistBits>>10, c.PAgEntries, c.PAgHistBits, c.SelectorSize>>10,
		c.BTBSets, c.BTBWays,
		c.ReturnPred,
		c.RASEntries, c.RASKind, c.RASPolicy, shadowStr(c.ShadowSlots),
		c.L1I.SizeBytes>>10, c.L1I.Ways, c.L1I.LineBytes,
		c.L1D.SizeBytes>>10, c.L1D.Ways, c.L1D.LineBytes,
		c.L2.SizeBytes>>10, c.L2.Ways, c.L2.LineBytes,
		c.MemLatency, shadowStr(c.MSHRs),
		c.MaxPaths, c.MPStacks, c.ConfThreshold, histMode(c.SpecHistory))
}

func histMode(spec bool) string {
	if spec {
		return "speculative history at fetch, counters at commit"
	}
	return "all state at commit (paper baseline)"
}

func shadowStr(n int) string {
	if n == 0 {
		return "unbounded"
	}
	return fmt.Sprintf("%d", n)
}
