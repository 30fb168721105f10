package resilience

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// State is a circuit breaker's position.
type State int

const (
	// StateClosed is normal operation: calls flow through, consecutive
	// failures are counted.
	StateClosed State = iota
	// StateHalfOpen admits a bounded number of probe calls after the
	// cooling period; their outcomes decide between closing and
	// re-opening.
	StateHalfOpen
	// StateOpen rejects every call until the cooling period elapses.
	StateOpen
)

// String returns the operator-facing name ("closed", "half-open",
// "open") used in /healthz and logs.
func (s State) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateHalfOpen:
		return "half-open"
	case StateOpen:
		return "open"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// ErrOpen is returned by Breaker.Allow while the breaker is rejecting
// calls. Callers should fail fast with a Retry-After, never block.
var ErrOpen = errors.New("resilience: circuit breaker open")

// BreakerConfig tunes one Breaker. The zero value gets production
// defaults.
type BreakerConfig struct {
	// FailureThreshold is how many consecutive failures trip the
	// breaker from closed to open. Default 5.
	FailureThreshold int
	// OpenFor is the cooling period: how long the breaker rejects
	// calls before letting probes through. Default 5s.
	OpenFor time.Duration
	// HalfOpenProbes bounds concurrently admitted probe calls while
	// half-open. Default 1.
	HalfOpenProbes int
	// SuccessThreshold is how many consecutive probe successes close a
	// half-open breaker. Default 2.
	SuccessThreshold int
	// Now is the clock; nil means time.Now. Tests inject a fake clock
	// so open → half-open transitions are deterministic.
	Now func() time.Time
	// OnStateChange, when set, observes every transition (metrics,
	// logging). It is called with the breaker's lock held — it must not
	// call back into the breaker.
	OnStateChange func(from, to State)
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 5
	}
	if c.OpenFor <= 0 {
		c.OpenFor = 5 * time.Second
	}
	if c.HalfOpenProbes <= 0 {
		c.HalfOpenProbes = 1
	}
	if c.SuccessThreshold <= 0 {
		c.SuccessThreshold = 2
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Breaker is a circuit breaker guarding one dependency. Concurrency-
// safe; transitions are driven entirely by Allow outcomes and the
// clock, so a fixed fault schedule yields a fixed transition sequence.
type Breaker struct {
	cfg BreakerConfig

	mu        sync.Mutex
	state     State
	failures  int       // consecutive failures while closed
	successes int       // consecutive probe successes while half-open
	probes    int       // probes currently in flight while half-open
	openedAt  time.Time // when the breaker last tripped open
}

// NewBreaker returns a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// Allow asks to make one guarded call. On admission it returns a done
// function the caller MUST invoke exactly once with the call's outcome
// (ok=false only for dependency failures — a bad candidate, an
// infrastructure error — never for configuration states or caller
// mistakes). While the breaker is open, Allow returns ErrOpen and a nil
// done.
func (b *Breaker) Allow() (done func(ok bool), err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateOpen:
		if b.cfg.Now().Sub(b.openedAt) < b.cfg.OpenFor {
			return nil, ErrOpen
		}
		b.transition(StateHalfOpen)
		fallthrough
	case StateHalfOpen:
		if b.probes >= b.cfg.HalfOpenProbes {
			return nil, ErrOpen
		}
		b.probes++
	}
	return b.record, nil
}

// record folds one admitted call's outcome into the state machine.
func (b *Breaker) record(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateClosed:
		if ok {
			b.failures = 0
			return
		}
		b.failures++
		if b.failures >= b.cfg.FailureThreshold {
			b.trip()
		}
	case StateHalfOpen:
		b.probes--
		if !ok {
			b.trip()
			return
		}
		b.successes++
		if b.successes >= b.cfg.SuccessThreshold {
			b.transition(StateClosed)
		}
	case StateOpen:
		// A call admitted before the trip finishing late; its outcome
		// no longer matters.
	}
}

// trip moves to open and starts the cooling period. Called with the
// lock held.
func (b *Breaker) trip() {
	b.openedAt = b.cfg.Now()
	b.transition(StateOpen)
}

// transition switches state and resets the counters that belong to the
// new state. Called with the lock held.
func (b *Breaker) transition(to State) {
	from := b.state
	b.state = to
	b.failures = 0
	b.successes = 0
	if to != StateHalfOpen {
		b.probes = 0
	}
	if from != to && b.cfg.OnStateChange != nil {
		b.cfg.OnStateChange(from, to)
	}
}

// State returns the current state, advancing open → half-open when the
// cooling period has elapsed (so observers see the same state a call
// would).
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == StateOpen && b.cfg.Now().Sub(b.openedAt) >= b.cfg.OpenFor {
		b.transition(StateHalfOpen)
	}
	return b.state
}

// RetryAfter reports how long until an open breaker admits probes
// again (zero when not open) — the value to surface in a Retry-After
// header.
func (b *Breaker) RetryAfter() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != StateOpen {
		return 0
	}
	remaining := b.cfg.OpenFor - b.cfg.Now().Sub(b.openedAt)
	if remaining < 0 {
		return 0
	}
	return remaining
}
