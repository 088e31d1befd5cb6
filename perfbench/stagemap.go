package main

// stages are the pipeline stage fractions the traced run reports; "other"
// is time inside Sim.Run under no stage method (the cycle loop itself, the
// end-of-run folds), reported rather than hidden.
var stages = []string{"fetch", "dispatch", "issue", "writeback", "commit", "other"}

const (
	// helper marks a method that runs on behalf of whichever stage called
	// it; its time counts for that stage.
	helper = "helper"
	// outer marks a method outside the per-cycle stages: the run loop,
	// construction, fast-forward, accessors and observers.
	outer = "outer"
	// duffcopy is the split key for samples in runtime.duffcopy.
	duffcopy = "duffcopy"
)

// stageOf classifies every method of pipeline.(*Sim). The profile fold
// attributes a sample to the outermost stage method on its stack; the map
// must name every method (TestStageMapCoversSim checks it against the
// package source), so a new method cannot slip into "other" unnoticed.
var stageOf = map[string]string{
	"fetchStage":     "fetch",
	"dispatchStage":  "dispatch",
	"issueStage":     "issue",
	"writebackStage": "writeback",
	"commitStage":    "commit",

	"Run": outer, "step": outer, "FastForward": outer, "Release": outer,
	"StepForTest": outer, "CheckInvariants": outer,
	"SetDisturber": outer, "SetSampler": outer, "SetTracer": outer,
	"Stats": outer, "Machine": outer, "ThreadMachine": outer, "Caches": outer,
	"DirPredictor": outer, "BTB": outer, "TargetCache": outer, "Done": outer,

	"addStackStats": helper, "allocMSHR": helper, "blockCounters": helper,
	"cloneOverlay": helper, "depsReady": helper, "disturb": helper,
	"doomDescendants": helper, "dropFetchSlot": helper, "emit": helper,
	"emitA": helper, "emitEvent": helper, "executeAtDispatch": helper,
	"expireMisses": helper, "fail": helper, "fetchPath": helper,
	"fillOutcome": helper, "flushDoomedSlots": helper, "foldBlockStats": helper,
	"foldLiveStackStats": helper, "foldPredecodeStats": helper,
	"killSubtree": helper, "lendCheckpointBuffer": helper,
	"loadForwarding": helper, "markDoomed": helper, "pathByToken": helper,
	"pathStack": helper, "popFetchSlot": helper, "predecodeCounters": helper,
	"predictControl": helper, "predictIndirect": helper, "rasPush": helper,
	"reapDrainedPaths": helper, "rebuildCreators": helper, "recover": helper,
	"recycleCheckpoint": helper, "recycleOverlay": helper,
	"releaseCheckpoint": helper, "releaseDoomedPaths": helper,
	"releasePath": helper, "repairFlag": helper, "resolveFork": helper,
	"retire": helper, "sampleRASDepth": helper, "settleFork": helper,
	"squashEntry": helper, "squashYounger": helper, "stackSeenHas": helper,
	"takeCheckpoint": helper, "takeOverlay": helper, "takeSample": helper,
	"threadOf": helper, "tokenDoomed": helper, "traceRepair": helper,
	"tryFork": helper, "updateBTB": helper, "visibleTo": helper,
	"wireDependencies": helper,
}
