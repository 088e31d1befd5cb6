package telemetry

import (
	"fmt"
	"sync"
)

// SinkSet coordinates end-of-run flushing for every observability sink a
// CLI opens (metrics dump, event log, result store, manifest, trace files).
// The CLIs have three exit paths — normal completion, signal-initiated
// drain, and fatal error — and historically each flushed its own ad-hoc
// subset, so a sink added to one path could silently miss another (the
// rasbench fatal() path used os.Exit and skipped every deferred Close).
// Registering sinks here and calling Flush on every exit path guarantees
// each sink flushes exactly once no matter which path runs first, or
// whether several race.
type SinkSet struct {
	mu      sync.Mutex
	sinks   []namedSink
	flushed bool
}

type namedSink struct {
	name  string
	flush func() error
}

// SinkError reports one sink's flush failure.
type SinkError struct {
	Name string
	Err  error
}

func (e SinkError) Error() string { return fmt.Sprintf("%s: %v", e.Name, e.Err) }

// NewSinkSet returns an empty set.
func NewSinkSet() *SinkSet { return &SinkSet{} }

// Register adds a sink. Flush order is registration order, so register
// dependent sinks after what they depend on (e.g. the manifest, whose
// fields other sinks may update, goes last). Registering after Flush has
// run panics: it would mean a sink that can never flush.
func (s *SinkSet) Register(name string, flush func() error) {
	if s == nil || flush == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.flushed {
		panic("telemetry: SinkSet.Register after Flush")
	}
	s.sinks = append(s.sinks, namedSink{name, flush})
}

// Flush runs every registered sink exactly once, in registration order,
// and returns the failures (every sink runs even when an earlier one
// fails). Later calls — from another exit path or another goroutine —
// are no-ops returning nil.
func (s *SinkSet) Flush() []SinkError {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	if s.flushed {
		s.mu.Unlock()
		return nil
	}
	s.flushed = true
	sinks := s.sinks
	s.mu.Unlock()

	var errs []SinkError
	for _, sk := range sinks {
		if err := sk.flush(); err != nil {
			errs = append(errs, SinkError{sk.name, err})
		}
	}
	return errs
}

// Flushed reports whether Flush has already run.
func (s *SinkSet) Flushed() bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushed
}
