package serve

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// inflight returns l's count of admitted, unreleased requests.
func inflight(l *limiter) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inflight
}

func TestParseDeadline(t *testing.T) {
	d, ok, err := parseDeadline("")
	if d != 0 || ok || err != nil {
		t.Fatalf("parseDeadline(\"\") = %v %v %v, want 0 false nil", d, ok, err)
	}
	d, ok, err = parseDeadline("1500")
	if err != nil || !ok || d != 1500*time.Millisecond {
		t.Fatalf("parseDeadline(1500) = %v %v %v", d, ok, err)
	}
	for _, bad := range []string{"abc", "1.5", "0", "-10"} {
		if _, _, err := parseDeadline(bad); err == nil {
			t.Errorf("parseDeadline(%q) succeeded, want error", bad)
		}
	}
}

func TestLimiterAdmitsUpToLimitThenSheds(t *testing.T) {
	l := newLimiter(2, 0, time.Second)

	rel1, err := l.acquire(context.Background())
	if err != nil {
		t.Fatalf("acquire 1: %v", err)
	}
	rel2, err := l.acquire(context.Background())
	if err != nil {
		t.Fatalf("acquire 2: %v", err)
	}
	if _, err := l.acquire(context.Background()); !errors.Is(err, errSaturated) {
		t.Fatalf("acquire 3 = %v, want errSaturated (queue disabled)", err)
	}
	rel1(false)
	rel2(false)
	if got := inflight(l); got != 0 {
		t.Fatalf("inflight = %d, want 0", got)
	}
}

func TestLimiterQueueGrantsFIFO(t *testing.T) {
	l := newLimiter(1, 2, time.Minute)

	rel, err := l.acquire(context.Background())
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}

	type result struct {
		idx int
		rel func(bool)
		err error
	}
	results := make(chan result, 2)
	started := make(chan int, 2)
	for i := 1; i <= 2; i++ {
		i := i
		go func() {
			started <- i
			r, err := l.acquire(context.Background())
			results <- result{i, r, err}
		}()
		<-started
		// Wait until this goroutine is actually queued before starting
		// the next, so FIFO order is deterministic.
		deadline := time.Now().Add(2 * time.Second)
		for l.queueDepth() < i {
			if time.Now().After(deadline) {
				t.Fatalf("waiter %d never queued (depth %d)", i, l.queueDepth())
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Queue full now.
	if _, err := l.acquire(context.Background()); !errors.Is(err, errSaturated) {
		t.Fatalf("acquire with full queue = %v, want errSaturated", err)
	}

	rel(false)
	first := <-results
	if first.err != nil || first.idx != 1 {
		t.Fatalf("first grant = waiter %d err %v, want waiter 1", first.idx, first.err)
	}
	first.rel(false)
	second := <-results
	if second.err != nil || second.idx != 2 {
		t.Fatalf("second grant = waiter %d err %v, want waiter 2", second.idx, second.err)
	}
	second.rel(false)
}

func TestLimiterQueueTimeout(t *testing.T) {
	l := newLimiter(1, 1, 10*time.Millisecond)

	rel, err := l.acquire(context.Background())
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	defer rel(false)

	start := time.Now()
	if _, err := l.acquire(context.Background()); !errors.Is(err, errQueueTimeout) {
		t.Fatalf("queued acquire = %v, want errQueueTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("queue timeout took %v", elapsed)
	}
	if got := l.queueDepth(); got != 0 {
		t.Fatalf("queueDepth after timeout = %d, want 0", got)
	}
}

func TestLimiterQueueRespectsContext(t *testing.T) {
	l := newLimiter(1, 1, time.Minute)

	rel, err := l.acquire(context.Background())
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	defer rel(false)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := l.acquire(ctx)
		errc <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for l.queueDepth() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued acquire after cancel = %v, want context.Canceled", err)
	}
}

func TestLimiterAIMD(t *testing.T) {
	l := newLimiter(16, 0, time.Second)

	// The limit starts at its ceiling; one drop scales it by 0.75.
	rel, err := l.acquire(context.Background())
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	rel(true)
	if got := l.currentLimit(); got != 12 {
		t.Fatalf("limit after drop = %v, want 12", got)
	}

	// Successes climb it back additively (~1/limit per success).
	before := l.currentLimit()
	for i := 0; i < 4; i++ {
		rel, err := l.acquire(context.Background())
		if err != nil {
			t.Fatalf("acquire: %v", err)
		}
		rel(false)
	}
	after := l.currentLimit()
	if after <= before || after > before+1.01 {
		t.Fatalf("limit after 4 successes = %v, want in (%v, %v]", after, before, before+1.01)
	}

	// Drops can never push it below minLimit.
	for i := 0; i < 20; i++ {
		rel, err := l.acquire(context.Background())
		if err != nil {
			t.Fatalf("acquire: %v", err)
		}
		rel(true)
	}
	if got := l.currentLimit(); got != minLimit {
		t.Fatalf("limit after 20 drops = %v, want the floor %v", got, minLimit)
	}
}

func TestLimiterLimitNeverExceedsMax(t *testing.T) {
	l := newLimiter(2, 0, time.Second)
	for i := 0; i < 50; i++ {
		rel, err := l.acquire(context.Background())
		if err != nil {
			t.Fatalf("acquire: %v", err)
		}
		rel(false)
	}
	if got := l.currentLimit(); got > 2 {
		t.Fatalf("limit exceeded maxLimit: %v", got)
	}
}

func TestLimiterOnBackoff(t *testing.T) {
	l := newLimiter(8, 0, time.Second)
	rel, err := l.acquire(context.Background())
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	rel(true)
	if got := l.backoffs.Value(); got != 1 {
		t.Fatalf("backoffs = %v, want 1", got)
	}
}

func TestLimiterReleaseIdempotent(t *testing.T) {
	l := newLimiter(4, 0, time.Second)
	rel, err := l.acquire(context.Background())
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	rel(false)
	rel(false) // second call must be a no-op
	if got := inflight(l); got != 0 {
		t.Fatalf("inflight after double release = %d, want 0", got)
	}
}

// TestLimiterStress races 32 goroutines × 500 acquires, with random
// holds, drops and cancellations, against a limiter of ceiling 4 with a
// 4-deep queue and a 1 ms queue timeout: admitted requests never exceed
// the ceiling, the queue drains, and no slot leaks when a timeout or a
// cancellation races a grant — once the limit has climbed back, all 4
// slots are free at once.
func TestLimiterStress(t *testing.T) {
	const ceiling = 4
	l := newLimiter(ceiling, 4, time.Millisecond)
	var running, peak, admitted, shed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				if rng.Intn(4) == 0 {
					time.AfterFunc(time.Duration(rng.Intn(1000))*time.Microsecond, cancel)
				}
				rel, err := l.acquire(ctx)
				if err != nil {
					shed.Add(1)
					cancel()
					continue
				}
				admitted.Add(1)
				n := running.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
				running.Add(-1)
				dropped := rng.Intn(16) == 0
				rel(dropped)
				if rng.Intn(8) == 0 {
					rel(dropped) // a second release must not free another slot
				}
				cancel()
			}
		}(int64(g))
	}
	wg.Wait()
	if p := peak.Load(); p > ceiling {
		t.Fatalf("peak in flight = %d, want ≤ %d", p, ceiling)
	}
	if admitted.Load() == 0 || shed.Load() == 0 {
		t.Fatalf("admitted %d, shed %d: the stress never saturated the limiter", admitted.Load(), shed.Load())
	}
	if n, d := inflight(l), l.queueDepth(); n != 0 || d != 0 {
		t.Fatalf("after the stress: inflight %d, queueDepth %d; want 0 and 0", n, d)
	}
	// Clean completions climb the limit back to its ceiling.
	for i := 0; l.currentLimit() < ceiling; i++ {
		if i == 1000 {
			t.Fatalf("limit stuck at %v after 1000 clean completions", l.currentLimit())
		}
		rel, err := l.acquire(context.Background())
		if err != nil {
			t.Fatalf("sequential acquire: %v", err)
		}
		rel(false)
	}
	// A cancelled context fails any acquire that has to queue, so these
	// succeed only on the fast path.
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < ceiling; i++ {
		if _, err := l.acquire(gone); err != nil {
			t.Fatalf("fresh acquire %d after the stress had to queue: %v (a slot leaked)", i+1, err)
		}
	}
}
