package core

import (
	"runtime/metrics"
	"sync"
	"time"
)

// heapMetric is the runtime/metrics sample the build-stage high-water
// marks read: the bytes of allocated heap objects, live or dead but not
// yet swept. It moves with every large allocation and every small-object
// span refill, so a stage's growth shows up while the stage runs.
// /gc/heap/live:bytes moves only at the end of a GC cycle, and a stage
// that finishes between two collections would read zero growth on it
// (docs/BENCHMARKING.md, "Embed peak RSS: exact-size M and released
// working sets").
const heapMetric = "/memory/classes/heap/objects:bytes"

// heapTick is the sampling period. Between ticks the heap grows by at
// most what the build allocates in one millisecond, which bounds how
// far a peak that a collection cuts short can be missed.
const heapTick = time.Millisecond

// heapSampler tracks the heap's high-water mark above a stage's start
// while a build runs: one goroutine per build samples heapMetric every
// heapTick into a reused sample slice (no tick allocates), and
// buildWithCache brackets each stage with begin and end, which sample
// too.
type heapSampler struct {
	mu     sync.Mutex
	sample []metrics.Sample
	start  uint64 // heap at the current stage's begin
	high   uint64 // highest sample since then
	quit   chan struct{}
	done   chan struct{}
}

// startHeapSampler starts a build's sampler; its first stage opens
// with begin. stop ends it.
func startHeapSampler() *heapSampler {
	h := &heapSampler{
		sample: []metrics.Sample{{Name: heapMetric}},
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go h.run()
	return h
}

func (h *heapSampler) run() {
	defer close(h.done)
	t := time.NewTicker(heapTick)
	defer t.Stop()
	for {
		select {
		case <-h.quit:
			return
		case <-t.C:
			h.mu.Lock()
			h.read()
			h.mu.Unlock()
		}
	}
}

// read samples the heap and raises the high-water mark; h.mu is held.
func (h *heapSampler) read() uint64 {
	metrics.Read(h.sample)
	v := h.sample[0].Value.Uint64()
	h.high = max(h.high, v)
	return v
}

// begin starts a stage: its high-water mark restarts from the heap now.
func (h *heapSampler) begin() {
	h.mu.Lock()
	h.high = 0
	h.start = h.read()
	h.mu.Unlock()
}

// end closes the stage begin opened and returns its heap high-water
// mark above the heap at its start, in bytes.
func (h *heapSampler) end() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.read()
	return h.high - h.start
}

// stop ends the sampling goroutine and waits for it to exit.
func (h *heapSampler) stop() {
	close(h.quit)
	<-h.done
}
