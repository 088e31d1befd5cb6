// Package campaignlog is the crash-safe write-ahead queue behind
// rasserve's campaign lifecycle: every submission, state transition,
// rendered table, and terminal status is one appended record, so a server
// restarted at any instant — including kill -9 mid-write — replays the
// log and knows exactly which campaigns finished (and with what tables)
// and which were submitted but never reached a terminal status. The
// finished ones serve from the log alone; the unfinished ones are
// re-adopted and requeued, carrying an attempt counter across restarts.
//
// On disk the log is an internal/seglog segment log, the same one under
// the result store: each record is one checksummed frame, fsynced before
// Append returns, and Open keeps every segment's valid prefix after a
// crash. Replay folds records in order with latest-record-wins semantics
// per campaign field, so a re-logged state or table simply supersedes the
// previous one — the self-healing path for requeued campaigns, which
// re-log their tables on every attempt.
//
// The log is a queue journal, not a cache: nothing is ever rewritten in
// place, and compaction is simply deleting the directory of a server
// whose campaigns are all terminal (the result store, not the campaign
// log, owns the expensive bytes).
package campaignlog

import (
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	"retstack/internal/seglog"
)

// Record types. A campaign's life is a submit, then any number of state
// transitions and tables, then exactly one done — but the log tolerates
// every other shape (replay is a fold, not a parser of well-formed
// lifecycles), because a crash can cut a lifecycle anywhere.
const (
	// TypeSubmit records a campaign's identity: id, normalized spec,
	// config hash, and store scope. Appended before the submission is
	// acknowledged, so an acknowledged campaign is always recoverable.
	TypeSubmit = "submit"
	// TypeState records a non-terminal status flip ("queued", "running")
	// and the attempt counter that produced it.
	TypeState = "state"
	// TypeTable records one experiment's rendered table. Re-runs re-log;
	// the latest rendering wins.
	TypeTable = "table"
	// TypeDone records the terminal status: "completed",
	// "completed_with_errors", or "failed", with the error text if any.
	TypeDone = "done"
)

// Terminal reports whether status names a finished campaign — one the
// log serves directly instead of re-adopting.
func Terminal(status string) bool {
	switch status {
	case "completed", "completed_with_errors", "failed":
		return true
	}
	return false
}

// Record is one campaign-log entry. Only the fields relevant to its Type
// are set; everything else stays at the zero value and is omitted from
// the encoding.
type Record struct {
	Type string `json:"type"`
	ID   string `json:"id"`
	// Time is the RFC3339 instant the record was appended (filled by
	// Append when empty).
	Time string `json:"time,omitempty"`

	// Submit fields.
	Spec       json.RawMessage `json:"spec,omitempty"`
	ConfigHash string          `json:"config_hash,omitempty"`
	Scope      string          `json:"scope,omitempty"`

	// State/Done fields.
	Status  string `json:"status,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	Error   string `json:"error,omitempty"`

	// Table fields.
	Exp   string `json:"exp,omitempty"`
	Table string `json:"table,omitempty"`
	Holes int    `json:"holes,omitempty"`
}

// Campaign is one campaign's replayed state: the fold of every record
// logged for its ID, in append order.
type Campaign struct {
	ID         string
	Spec       json.RawMessage
	ConfigHash string
	Scope      string
	// Submitted is the submit record's timestamp (RFC3339).
	Submitted string
	// Status is the last status recorded — "" if only a submit survived
	// (a crash between the submit append and the queued state append).
	Status string
	// Attempt is the highest attempt counter recorded. A re-adopting
	// server resumes from Attempt+1.
	Attempt int
	// Error is the terminal error text, if the campaign failed or
	// completed with errors.
	Error string
	// Tables maps experiment id to its latest rendered table.
	Tables map[string]string
	// Holes maps experiment id to the hole count its latest table
	// carried (cells skipped under the campaign's error policy).
	Holes map[string]int
}

// Terminal reports whether the campaign reached a terminal status.
func (c *Campaign) Terminal() bool { return Terminal(c.Status) }

// Stats reports what Open recovered.
type Stats struct {
	// Records is the number of valid records replayed across segments.
	Records uint64
	// DroppedBytes is the torn or corrupt data Open discarded.
	DroppedBytes uint64
	// Appends counts records appended by this process.
	Appends uint64
}

// Log is an open campaign log. Safe for concurrent use.
type Log struct {
	log     *seglog.Log
	appends atomic.Uint64

	// Boot-time replay state, frozen at Open: the server consumes it
	// once to rebuild its campaign map, then appends only.
	campaigns map[string]*Campaign
	order     []string
	records   uint64
}

// Open opens (creating if needed) the campaign log rooted at dir,
// replaying every segment's valid prefix (see seglog.Open). A frame whose
// payload is not a campaign record is skipped.
func Open(dir string) (*Log, error) {
	l := &Log{campaigns: map[string]*Campaign{}}
	log, err := seglog.Open(dir, func(payload []byte) {
		var r Record
		if json.Unmarshal(payload, &r) != nil || r.Type == "" || r.ID == "" {
			return
		}
		l.fold(r)
		l.records++
	})
	if err != nil {
		return nil, fmt.Errorf("campaignlog: %w", err)
	}
	l.log = log
	return l, nil
}

// fold applies one replayed record to the campaign map. Later records
// win field-by-field; records for an ID whose submit was lost to
// corruption still fold (the server decides what to do with a campaign
// that has no spec).
func (l *Log) fold(r Record) {
	c := l.campaigns[r.ID]
	if c == nil {
		c = &Campaign{ID: r.ID, Tables: map[string]string{}, Holes: map[string]int{}}
		l.campaigns[r.ID] = c
		l.order = append(l.order, r.ID)
	}
	switch r.Type {
	case TypeSubmit:
		c.Spec = r.Spec
		c.ConfigHash = r.ConfigHash
		c.Scope = r.Scope
		c.Submitted = r.Time
		if c.Status == "" {
			c.Status = "queued"
		}
	case TypeState:
		c.Status = r.Status
		if r.Attempt > c.Attempt {
			c.Attempt = r.Attempt
		}
	case TypeTable:
		c.Tables[r.Exp] = r.Table
		c.Holes[r.Exp] = r.Holes
	case TypeDone:
		c.Status = r.Status
		c.Error = r.Error
	}
}

// Dir returns the log's root directory.
func (l *Log) Dir() string { return l.log.Dir() }

// Campaigns returns the boot-time replay in submission order. The slice
// and campaigns are the replay state itself — the caller owns them after
// Open and must not share them across goroutines with Append (Append
// does not update them).
func (l *Log) Campaigns() []*Campaign {
	out := make([]*Campaign, 0, len(l.order))
	for _, id := range l.order {
		out = append(out, l.campaigns[id])
	}
	return out
}

// Stats snapshots the recovery and append counters.
func (l *Log) Stats() Stats {
	return Stats{Records: l.records, DroppedBytes: l.log.DroppedBytes(), Appends: l.appends.Load()}
}

// SetMaxSegmentBytes overrides the rotation threshold (testing knob).
func (l *Log) SetMaxSegmentBytes(n int64) { l.log.SetMaxSegmentBytes(n) }

// Append writes one record and fsyncs it before returning — a record
// Append acknowledged survives any crash. An empty Time is filled with
// the current instant.
func (l *Log) Append(r Record) error {
	if r.Type == "" || r.ID == "" {
		return fmt.Errorf("campaignlog: record needs a type and a campaign id")
	}
	if r.Time == "" {
		r.Time = time.Now().UTC().Format(time.RFC3339Nano)
	}
	payload, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("campaignlog: %w", err)
	}
	if err := l.log.Append(payload); err != nil {
		return fmt.Errorf("campaignlog: %w", err)
	}
	l.appends.Add(1)
	return nil
}

// Submit logs a campaign's identity record.
func (l *Log) Submit(id string, spec json.RawMessage, configHash, scope string) error {
	return l.Append(Record{Type: TypeSubmit, ID: id, Spec: spec, ConfigHash: configHash, Scope: scope})
}

// State logs a non-terminal status flip.
func (l *Log) State(id, status string, attempt int) error {
	return l.Append(Record{Type: TypeState, ID: id, Status: status, Attempt: attempt})
}

// Table logs one experiment's rendered table.
func (l *Log) Table(id, exp, table string, holes int) error {
	return l.Append(Record{Type: TypeTable, ID: id, Exp: exp, Table: table, Holes: holes})
}

// Done logs the terminal status.
func (l *Log) Done(id, status, errMsg string) error {
	return l.Append(Record{Type: TypeDone, ID: id, Status: status, Error: errMsg})
}

// Close closes the log. Further Appends fail.
func (l *Log) Close() error { return l.log.Close() }
