// Package seglog is the crash-safe append-only log under the result
// store (internal/resultstore) and rasserve's campaign log
// (internal/campaignlog). It owns everything on disk; its callers own only
// the meaning of their payloads.
//
// A log is a directory of segment files (seg-000001.log, seg-000002.log,
// …). Each record is one line framing a JSON payload under its CRC32:
//
//	{"crc":<crc32 of payload>,"payload":<payload>}
//
// Append fsyncs the line before returning, so an acknowledged record
// survives any crash. A process killed mid-append leaves at worst one
// torn trailing line; Open replays every segment's valid prefix — parsing
// stops at the first line that is not exactly a frame with a matching
// checksum — and cuts the active segment back to that prefix, so later
// appends start on a clean line. A failed write or fsync is cut back the
// same way before Append returns, so one failed append can never strand
// the acknowledged appends after it; if that cut fails too, the log
// refuses further appends until it is reopened.
//
// The active segment rotates at a size threshold; rotated segments are
// immutable. Trim evicts whole oldest segments, which is safe for any
// caller whose records are self-contained or superseded by later ones.
package seglog

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// defaultMaxSegmentBytes is the rotation threshold for the active segment.
const defaultMaxSegmentBytes = 4 << 20

var errClosed = errors.New("seglog: log closed")

const (
	segPrefix = "seg-"
	segSuffix = ".log"
)

var (
	framePrefix = []byte(`{"crc":`)
	frameMiddle = []byte(`,"payload":`)
	frameSuffix = []byte("}")
)

// Log is an open segment log. Safe for concurrent use.
type Log struct {
	dir     string
	dropped uint64

	mu     sync.Mutex
	maxSeg int64
	f      *os.File // active segment, opened for append
	seg    int      // active segment number
	size   int64    // active segment bytes, all of them whole frames
	broken error    // a failed append could not be cut back
	closed bool
}

// Open opens (creating if needed) the log rooted at dir and passes every
// valid payload, oldest first, to replay (which may be nil). A torn or
// corrupt tail on the active segment is truncated away; one on a rotated
// segment only drops that segment's remaining records. Both count toward
// DroppedBytes.
func Open(dir string, replay func(payload []byte)) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("seglog: %w", err)
	}
	l := &Log{dir: dir, maxSeg: defaultMaxSegmentBytes}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	for i, seg := range segs {
		consumed, size, err := l.replaySegment(seg, replay)
		if err != nil {
			return nil, err
		}
		l.dropped += uint64(size - consumed)
		if i == len(segs)-1 && consumed < size {
			if err := os.Truncate(l.path(seg), int64(consumed)); err != nil {
				return nil, fmt.Errorf("seglog: truncate torn tail: %w", err)
			}
		}
	}
	active := 1
	if len(segs) > 0 {
		active = segs[len(segs)-1]
	}
	if err := l.openSegment(active); err != nil {
		return nil, err
	}
	return l, nil
}

// Dir returns the log's root directory.
func (l *Log) Dir() string { return l.dir }

// DroppedBytes is how much torn or corrupt data Open discarded across
// segments.
func (l *Log) DroppedBytes() uint64 { return l.dropped }

// SetMaxSegmentBytes overrides the rotation threshold (testing knob).
func (l *Log) SetMaxSegmentBytes(n int64) {
	if n > 0 {
		l.mu.Lock()
		l.maxSeg = n
		l.mu.Unlock()
	}
}

// Append frames payload, which must be JSON, as one line and fsyncs it
// before returning. The payload is stored compacted.
func (l *Log) Append(payload []byte) error {
	line, err := frame(payload)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errClosed
	}
	if l.broken != nil {
		return fmt.Errorf("seglog: appends refused until reopen: %w", l.broken)
	}
	if l.size > 0 && l.size+int64(len(line)) > l.maxSeg {
		if err := l.openSegment(l.seg + 1); err != nil {
			return fmt.Errorf("seglog: rotate: %w", err)
		}
	}
	if _, err = l.f.Write(line); err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		// The write may have landed part of the line. Cut it back off:
		// an acknowledged append behind a partial line would be lost
		// (and truncated away) by the next Open.
		if terr := l.f.Truncate(l.size); terr != nil {
			l.broken = terr
		}
		return fmt.Errorf("seglog: append: %w", err)
	}
	l.size += int64(len(line))
	return nil
}

// Trim deletes whole oldest segments until the log's total size fits
// maxBytes and returns how many it deleted; the active segment is never
// deleted. If any were, the survivors' payloads are passed, oldest first,
// to replay (which may be nil) — how a caller rebuilds its index.
func (l *Log) Trim(maxBytes int64, replay func(payload []byte)) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	segs, err := listSegments(l.dir)
	if err != nil {
		return 0, err
	}
	sizes := make([]int64, len(segs))
	var total int64
	for i, seg := range segs {
		fi, err := os.Stat(l.path(seg))
		if err != nil {
			return 0, fmt.Errorf("seglog: %w", err)
		}
		sizes[i] = fi.Size()
		total += fi.Size()
	}
	removed := 0
	for ; removed < len(segs)-1 && total > maxBytes; removed++ {
		if err := os.Remove(l.path(segs[removed])); err != nil {
			return removed, fmt.Errorf("seglog: %w", err)
		}
		total -= sizes[removed]
	}
	if removed == 0 {
		return 0, nil
	}
	for _, seg := range segs[removed:] {
		if _, _, err := l.replaySegment(seg, replay); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// Close closes the active segment. Further appends fail.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	return l.f.Close()
}

// replaySegment feeds one segment's valid payloads to fn and returns the
// valid prefix's length and the segment's size.
func (l *Log) replaySegment(seg int, fn func([]byte)) (consumed, size int, err error) {
	data, err := os.ReadFile(l.path(seg))
	if err != nil {
		return 0, 0, fmt.Errorf("seglog: %w", err)
	}
	payloads, consumed := parse(data)
	if fn != nil {
		for _, p := range payloads {
			fn(p)
		}
	}
	return consumed, len(data), nil
}

// openSegment makes seg the active segment. Caller holds mu (or is Open,
// before the log is shared).
func (l *Log) openSegment(seg int) error {
	f, err := os.OpenFile(l.path(seg), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("seglog: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("seglog: %w", err)
	}
	if l.f != nil {
		l.f.Close() // every append to it was fsynced
	}
	l.f, l.seg, l.size = f, seg, fi.Size()
	return nil
}

func (l *Log) path(seg int) string {
	return filepath.Join(l.dir, fmt.Sprintf("%s%06d%s", segPrefix, seg, segSuffix))
}

// listSegments returns dir's segment numbers in ascending order.
func listSegments(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("seglog: %w", err)
	}
	var segs []int
	for _, e := range ents {
		num, ok := strings.CutPrefix(e.Name(), segPrefix)
		if !ok {
			continue
		}
		num, ok = strings.CutSuffix(num, segSuffix)
		if !ok {
			continue
		}
		if n, err := strconv.Atoi(num); err == nil && n > 0 {
			segs = append(segs, n)
		}
	}
	sort.Ints(segs)
	return segs, nil
}

// frame encodes payload as one log line.
func frame(payload []byte) ([]byte, error) {
	var body bytes.Buffer
	if err := json.Compact(&body, payload); err != nil {
		return nil, fmt.Errorf("seglog: payload is not JSON: %w", err)
	}
	p := body.Bytes()
	line := make([]byte, 0, len(framePrefix)+10+len(frameMiddle)+len(p)+2)
	line = append(line, framePrefix...)
	line = strconv.AppendUint(line, uint64(crc32.ChecksumIEEE(p)), 10)
	line = append(line, frameMiddle...)
	line = append(line, p...)
	line = append(line, frameSuffix...)
	return append(line, '\n'), nil
}

// parse splits a segment's bytes into payloads, stopping at the first
// line that is not a whole, checksum-valid frame: a line without its
// newline (a crash cut it), any other JSON, or a CRC mismatch. Blank
// lines are skipped. The second result is the valid prefix's length.
func parse(data []byte) ([][]byte, int) {
	var payloads [][]byte
	consumed := 0
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			break
		}
		line := data[:nl]
		data = data[nl+1:]
		if len(bytes.TrimSpace(line)) > 0 {
			p, ok := unframe(line)
			if !ok {
				break
			}
			payloads = append(payloads, p)
		}
		consumed += nl + 1
	}
	return payloads, consumed
}

// unframe returns a frame line's payload if the line is exactly a frame
// whose checksum matches.
func unframe(line []byte) ([]byte, bool) {
	rest, ok := bytes.CutPrefix(line, framePrefix)
	if !ok {
		return nil, false
	}
	i := bytes.IndexByte(rest, ',')
	if i < 0 {
		return nil, false
	}
	crc, err := strconv.ParseUint(string(rest[:i]), 10, 32)
	if err != nil {
		return nil, false
	}
	p, ok := bytes.CutPrefix(rest[i:], frameMiddle)
	if !ok {
		return nil, false
	}
	p, ok = bytes.CutSuffix(p, frameSuffix)
	if !ok || crc32.ChecksumIEEE(p) != uint32(crc) || !json.Valid(p) {
		return nil, false
	}
	return p, true
}
