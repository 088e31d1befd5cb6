package sweep

import (
	"bytes"
	"fmt"
	"strings"
	"time"
)

// CellError attributes a cell failure to its index. Every failure a sweep
// returns or records — plain cell errors, converted panics, watchdog
// timeouts — is wrapped in a CellError, so callers can always recover the
// failing index with errors.As and reach the cause through Unwrap.
type CellError struct {
	Cell int
	Err  error
}

func (e *CellError) Error() string {
	return fmt.Sprintf("sweep: cell %d: %v", e.Cell, e.Err)
}

func (e *CellError) Unwrap() error { return e.Err }

// TimeoutError reports a cell abandoned by the per-cell watchdog (the
// rasbench -cell-timeout flag). The cell goroutine may still be running —
// its context was canceled, but the sweep stops waiting for it — so its
// result, if one ever arrives, is discarded.
type TimeoutError struct {
	Cell  int
	Limit time.Duration
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("cell watchdog: no result within %v (goroutine abandoned)", e.Limit)
}

// Is makes errors.Is(err, context.DeadlineExceeded)-style checks
// unnecessary: a TimeoutError never matches context errors (the run was
// not canceled), so it only equals another TimeoutError for the same cell.
func (e *TimeoutError) Is(target error) bool {
	t, ok := target.(*TimeoutError)
	return ok && t.Cell == e.Cell
}

// PanicError reports a sweep cell that panicked. It preserves the cell
// index and the panicking goroutine's stack so a failure deep inside one
// simulation of a multi-hundred-cell sweep is attributable.
//
// Error returns a single line (panic value plus the panic site) so the
// error can flow into line-oriented sinks — JSONL events, the progress
// line, CSV hole comments — without dumping a multi-KB stack into them.
// The full stack stays available through Verbose and the Stack field.
type PanicError struct {
	Cell  int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	msg := fmt.Sprintf("panicked: %v", oneLine(fmt.Sprint(e.Value)))
	if site := e.panicSite(); site != "" {
		msg += " at " + site
	}
	return msg
}

// Verbose returns the error with the full panic stack attached, for
// contexts (stderr diagnostics, test failures) that want all of it.
func (e *PanicError) Verbose() string {
	return fmt.Sprintf("sweep: cell %d panicked: %v\n%s", e.Cell, e.Value, e.Stack)
}

// panicSite extracts where the panic happened ("file.go:123") from the
// captured stack: the first frame below the runtime's panic frame that is
// not itself in the runtime (a nil dereference passes through
// runtime.sigpanic, say). Frames above the panic frame are the recover
// plumbing, wherever it lives.
func (e *PanicError) panicSite() string {
	lines := bytes.Split(e.Stack, []byte("\n"))
	panicked := false
	// Each frame is a function line followed by a location line that
	// looks like "\t/path/file.go:123 +0x1b".
	for k := 0; k+1 < len(lines); k++ {
		fn := string(lines[k])
		if !bytes.HasPrefix(lines[k+1], []byte("\t")) {
			continue
		}
		if !panicked {
			panicked = strings.HasPrefix(fn, "panic(")
			continue
		}
		if strings.HasPrefix(fn, "runtime.") {
			continue
		}
		l := strings.TrimSpace(string(lines[k+1]))
		if i := strings.IndexByte(l, ' '); i > 0 {
			l = l[:i]
		}
		// Keep only the last two path elements: enough to locate, short
		// enough for one line.
		parts := strings.Split(l, "/")
		if len(parts) > 2 {
			l = strings.Join(parts[len(parts)-2:], "/")
		}
		return l
	}
	return ""
}

// oneLine flattens and bounds a string for single-line error output.
func oneLine(s string) string {
	s = strings.ReplaceAll(s, "\n", " ")
	const max = 200
	if len(s) > max {
		s = s[:max] + "..."
	}
	return s
}
