package core

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"
)

// TestStageHeapPeakSeesHeldBlock: a stage that allocates and holds a
// 64 MiB block reports a heap peak of at least 64 MiB, whether a tick
// or the stage's closing sample sees it. The stage starts on a
// collected and fully swept heap, and collection is off while it runs.
// With it on, the collection the block's allocation starts
// frees garbage that the start reading counted, and the runtime's own
// allocations move the reading by a few KiB either way, so the peak
// can fall short of the block by that much.
func TestStageHeapPeakSeesHeldBlock(t *testing.T) {
	const block = 64 << 20
	h := startHeapSampler()
	defer h.stop()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	h.begin()
	b := make([]byte, block)
	time.Sleep(5 * heapTick)
	peak := h.end()
	runtime.KeepAlive(b)
	if peak < block {
		t.Errorf("stage holding a %d-byte block reported a heap peak of %d bytes", block, peak)
	}
}

// TestHeapSamplerReadAllocatesNothing: a tick reads into the sampler's
// reused sample slice.
func TestHeapSamplerReadAllocatesNothing(t *testing.T) {
	h := startHeapSampler()
	defer h.stop()
	h.begin()
	allocs := testing.AllocsPerRun(100, func() {
		h.mu.Lock()
		h.read()
		h.mu.Unlock()
	})
	if allocs != 0 {
		t.Errorf("one heap sample allocated %v times", allocs)
	}
}
