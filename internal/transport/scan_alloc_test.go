package transport

import (
	"bufio"
	"io"
	"testing"
)

// TestServedScanAllocs holds what serving one Scan allocates: a
// 1 600-row relation goes out in DefaultScanBatch-row frames encoded
// into one buffer the stream keeps, sized to a payload before it is
// written, so a frame allocates only when it outgrows every frame
// before it (97 allocations when every frame grew a fresh buffer from
// nothing). The ceiling is the measured 20 plus 10 %.
func TestServedScanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on its own")
	}
	p := servedPeer(t, 1600)
	s := NewServer(p)
	bw := bufio.NewWriter(io.Discard)
	allocs := testing.AllocsPerRun(20, func() {
		if !s.serveScan(bw, p, "course") {
			t.Fatal("serveScan failed")
		}
	})
	const ceiling = 22
	t.Logf("%.0f allocs per served 1 600-row Scan (ceiling %d)", allocs, ceiling)
	if allocs > ceiling {
		t.Errorf("a served Scan allocates %.0f times, over the ceiling %d", allocs, ceiling)
	}
}
