package telemetry

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// Manifest records everything needed to trace a results artifact
// (EXPERIMENTS.md rows, CSV dumps) back to the run that produced it: the
// resolved machine configuration and its hash, the instruction budget,
// the environment, and per-cell wall-clock timings.
type Manifest struct {
	Tool      string   `json:"tool"`
	Args      []string `json:"args,omitempty"`
	GoVersion string   `json:"go_version"`
	OS        string   `json:"os"`
	Arch      string   `json:"arch"`

	Start       time.Time `json:"start"`
	WallSeconds float64   `json:"wall_seconds"`

	// Run parameters that determine the numbers.
	InstBudget uint64   `json:"inst_budget"`
	Warmup     uint64   `json:"warmup,omitempty"`
	Workloads  []string `json:"workloads,omitempty"`
	// Parallel is recorded for performance context only: results are
	// byte-identical at any worker count.
	Parallel int `json:"parallel,omitempty"`
	// ExperimentIDs is the experiment set the run was asked to produce
	// (the resolved -exp selection), which determines which tables exist.
	ExperimentIDs []string `json:"experiment_ids,omitempty"`

	// Config is the resolved machine configuration (Config.Describe).
	Config string `json:"config"`
	// ConfigHash is a sha256 over the result-determining fields (config,
	// budget, warmup, workload set, experiment set) — two runs with equal
	// hashes produce identical tables.
	ConfigHash string `json:"config_hash"`

	// Status is how the run ended: "completed", or "interrupted" when a
	// signal canceled the sweep and the partial state was flushed. It is
	// provenance, not a result-determining field, so it is outside
	// ConfigHash.
	Status string `json:"status,omitempty"`

	// Trace records event-trace capture provenance when -trace-out was
	// set. Tracing is strictly observational (tables stay byte-identical),
	// so like Status it lives outside ConfigHash.
	Trace *TraceRecord `json:"trace,omitempty"`

	// Store records result-store provenance when -store backed this run:
	// where the cache lives, the scope hash its keys were derived under,
	// and the hit/miss/put/shared counts — a resumed run's hits are the
	// cells it spliced in. Cached splices are byte-identical to
	// simulation, so like Status it lives outside ConfigHash.
	Store *StoreRecord `json:"store,omitempty"`

	Experiments []ExperimentRecord `json:"experiments,omitempty"`
}

// TraceRecord is the manifest's trace-capture provenance: where the
// per-cell trace files went, the causal ring capacity, and the aggregate
// event/attribution counts — enough to tell whether a trace directory
// belongs to this run's tables.
type TraceRecord struct {
	Dir        string   `json:"dir"`
	Buf        int      `json:"buf"`
	Files      []string `json:"files,omitempty"`
	Events     uint64   `json:"events"`
	Attributed uint64   `json:"attributed"`
}

// StoreRecord is the manifest's result-store provenance: which store
// directory served the run, the scope hash the cell keys were derived
// under, and how much of the run came from cache. A warm rerun shows
// Hits == cells and Misses == 0; CI's cache-smoke job asserts exactly
// that.
type StoreRecord struct {
	Dir    string `json:"dir"`
	Scope  string `json:"scope"`
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Puts   uint64 `json:"puts"`
	Shared uint64 `json:"shared,omitempty"`
}

// ExperimentRecord is one experiment's timing within a run.
type ExperimentRecord struct {
	ID          string       `json:"id"`
	Title       string       `json:"title,omitempty"`
	WallSeconds float64      `json:"wall_seconds"`
	Cells       []CellRecord `json:"cells,omitempty"`
}

// CellRecord is one sweep cell's accounting.
type CellRecord struct {
	Cell    int     `json:"cell"`
	Worker  int     `json:"worker"`
	Seconds float64 `json:"seconds"`
	Error   bool    `json:"error,omitempty"`
}

// NewManifest starts a manifest for the named tool, stamping the
// environment and start time.
func NewManifest(tool string, args []string) *Manifest {
	return &Manifest{
		Tool:      tool,
		Args:      args,
		GoVersion: runtime.Version(),
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		Start:     time.Now().UTC(),
	}
}

// ComputeHash fills ConfigHash from the result-determining fields and
// returns it. Call after Config, InstBudget, Warmup, Workloads, and
// ExperimentIDs are final.
func (m *Manifest) ComputeHash() string {
	h := sha256.New()
	fmt.Fprintf(h, "config:%s\ninsts:%d\nwarmup:%d\nworkloads:%s\nexperiments:%s\n",
		m.Config, m.InstBudget, m.Warmup, strings.Join(m.Workloads, ","),
		strings.Join(m.ExperimentIDs, ","))
	m.ConfigHash = hex.EncodeToString(h.Sum(nil))
	return m.ConfigHash
}

// Finish stamps the total wall clock relative to Start.
func (m *Manifest) Finish() { m.WallSeconds = time.Since(m.Start).Seconds() }

// WriteFile writes the manifest as indented JSON.
func (m *Manifest) WriteFile(path string) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Fields returns the manifest as event-log fields, so runs with an event
// log but no -manifest-out still record their provenance.
func (m *Manifest) Fields() map[string]any {
	return map[string]any{
		"go_version":  m.GoVersion,
		"os":          m.OS,
		"arch":        m.Arch,
		"inst_budget": m.InstBudget,
		"warmup":      m.Warmup,
		"workloads":   strings.Join(m.Workloads, ","),
		"parallel":    m.Parallel,
		"experiments": strings.Join(m.ExperimentIDs, ","),
		"config_hash": m.ConfigHash,
	}
}
