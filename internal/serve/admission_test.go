package serve

import (
	"context"
	"errors"
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
