//go:build linux

package seglog

import (
	"strings"
	"syscall"
	"testing"
)

// TestFailedAppendIsCutBack: a write that fails part-way — here with
// EFBIG, from an RLIMIT_FSIZE just above the segment's size — must not
// leave its partial line behind. If it did, the next append would be
// acknowledged yet land after that line, and the next Open would stop
// parsing there and truncate it away. Not parallel: the limit is
// process-wide, so it is restored right after the failing append.
func TestFailedAppendIsCutBack(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, nil)
	appendAll(t, l, `{"v":0}`)

	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Skipf("getrlimit: %v", err)
	}
	lowered := old
	lowered.Cur = uint64(l.size) + 16 // room for part of the next frame only
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lowered); err != nil {
		t.Skipf("setrlimit: %v", err)
	}
	err := l.Append([]byte(`{"v":1,"pad":"` + strings.Repeat("x", 64) + `"}`))
	if rerr := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); rerr != nil {
		t.Fatalf("restore RLIMIT_FSIZE: %v", rerr)
	}
	if err == nil {
		t.Fatal("append past RLIMIT_FSIZE succeeded")
	}

	appendAll(t, l, `{"v":2}`)
	l.Close()
	got, l2 := replayAll(t, dir)
	if strings.Join(got, " ") != `{"v":0} {"v":2}` || l2.DroppedBytes() != 0 {
		t.Fatalf("replayed %q with %d dropped bytes, want both acknowledged appends and none dropped",
			got, l2.DroppedBytes())
	}
}
