package resilience

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for deterministic breaker
// timing.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1700000000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// fail records one failed call through the breaker; t.Fatal if the
// breaker refused it.
func fail(t *testing.T, b *Breaker) {
	t.Helper()
	done, err := b.Allow()
	if err != nil {
		t.Fatalf("Allow: %v", err)
	}
	done(false)
}

func succeed(t *testing.T, b *Breaker) {
	t.Helper()
	done, err := b.Allow()
	if err != nil {
		t.Fatalf("Allow: %v", err)
	}
	done(true)
}

func TestBreakerTripsAfterConsecutiveFailures(t *testing.T) {
	clock := newFakeClock()
	b := NewBreaker(BreakerConfig{FailureThreshold: 3, OpenFor: time.Second, Now: clock.Now})

	fail(t, b)
	fail(t, b)
	if got := b.State(); got != StateClosed {
		t.Fatalf("state after 2 failures = %v, want closed", got)
	}
	fail(t, b)
	if got := b.State(); got != StateOpen {
		t.Fatalf("state after 3 failures = %v, want open", got)
	}
	if _, err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("Allow while open = %v, want ErrOpen", err)
	}
}

func TestBreakerSuccessResetsFailureCount(t *testing.T) {
	clock := newFakeClock()
	b := NewBreaker(BreakerConfig{FailureThreshold: 3, Now: clock.Now})

	fail(t, b)
	fail(t, b)
	succeed(t, b)
	fail(t, b)
	fail(t, b)
	if got := b.State(); got != StateClosed {
		t.Fatalf("state = %v, want closed (success should reset the streak)", got)
	}
	fail(t, b)
	if got := b.State(); got != StateOpen {
		t.Fatalf("state = %v, want open", got)
	}
}

func TestBreakerHalfOpenAfterCooling(t *testing.T) {
	clock := newFakeClock()
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, OpenFor: time.Second, SuccessThreshold: 2, Now: clock.Now})

	fail(t, b)
	if got := b.State(); got != StateOpen {
		t.Fatalf("state = %v, want open", got)
	}
	if ra := b.RetryAfter(); ra != time.Second {
		t.Fatalf("RetryAfter = %v, want 1s", ra)
	}

	clock.Advance(time.Second)
	if got := b.State(); got != StateHalfOpen {
		t.Fatalf("state after cooling = %v, want half-open", got)
	}
	if ra := b.RetryAfter(); ra != 0 {
		t.Fatalf("RetryAfter while half-open = %v, want 0", ra)
	}

	// Two probe successes close it.
	succeed(t, b)
	if got := b.State(); got != StateHalfOpen {
		t.Fatalf("state after 1 probe success = %v, want half-open", got)
	}
	succeed(t, b)
	if got := b.State(); got != StateClosed {
		t.Fatalf("state after 2 probe successes = %v, want closed", got)
	}
}

func TestBreakerHalfOpenProbeFailureReopens(t *testing.T) {
	clock := newFakeClock()
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, OpenFor: time.Second, Now: clock.Now})

	fail(t, b)
	clock.Advance(time.Second)
	fail(t, b) // probe fails
	if got := b.State(); got != StateOpen {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	// Cooling restarts from the re-trip.
	if _, err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("Allow immediately after re-trip = %v, want ErrOpen", err)
	}
}

func TestBreakerHalfOpenBoundsProbes(t *testing.T) {
	clock := newFakeClock()
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, OpenFor: time.Second, HalfOpenProbes: 1, Now: clock.Now})

	fail(t, b)
	clock.Advance(time.Second)
	done, err := b.Allow()
	if err != nil {
		t.Fatalf("first probe refused: %v", err)
	}
	if _, err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("second concurrent probe = %v, want ErrOpen", err)
	}
	done(true)
	if _, err := b.Allow(); err != nil {
		t.Fatalf("probe slot not released: %v", err)
	}
}

func TestBreakerOnStateChangeSequence(t *testing.T) {
	clock := newFakeClock()
	var transitions []string
	b := NewBreaker(BreakerConfig{
		FailureThreshold: 2,
		OpenFor:          time.Second,
		SuccessThreshold: 1,
		Now:              clock.Now,
		OnStateChange: func(from, to State) {
			transitions = append(transitions, from.String()+"->"+to.String())
		},
	})

	fail(t, b)
	fail(t, b) // closed -> open
	clock.Advance(time.Second)
	succeed(t, b) // open -> half-open (via Allow), half-open -> closed

	want := []string{"closed->open", "open->half-open", "half-open->closed"}
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transition[%d] = %q, want %q (all: %v)", i, transitions[i], want[i], transitions)
		}
	}
}

func TestStateString(t *testing.T) {
	cases := map[State]string{
		StateClosed:   "closed",
		StateHalfOpen: "half-open",
		StateOpen:     "open",
		State(42):     "state(42)",
	}
	for state, want := range cases {
		if got := state.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", int(state), got, want)
		}
	}
}
