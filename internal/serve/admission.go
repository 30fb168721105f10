package serve

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// deadlineHeader is the request header carrying the client's total
// willingness to wait, in integer milliseconds.
const deadlineHeader = "X-Leva-Deadline-Ms"

// parseDeadline interprets a deadlineHeader value. An empty value
// means the client declared no deadline (ok=false, no error); a
// non-integer, zero, or negative value is a client error.
func parseDeadline(value string) (d time.Duration, ok bool, err error) {
	if value == "" {
		return 0, false, nil
	}
	ms, err := strconv.ParseInt(value, 10, 64)
	if err != nil {
		return 0, false, fmt.Errorf("resilience: %s: %q is not an integer millisecond count", deadlineHeader, value)
	}
	if ms <= 0 {
		return 0, false, fmt.Errorf("resilience: %s: deadline must be positive, got %d", deadlineHeader, ms)
	}
	return time.Duration(ms) * time.Millisecond, true, nil
}

// withDeadline folds the client's X-Leva-Deadline-Ms budget into the
// request context. The per-request timeout handler derives its context
// from it, so whichever budget is shorter answers the timed-out 503.
// Featurization checks it between rows; a neighbor search takes no
// context and runs to completion (tens of µs), its answer dropped for
// the 503. Abandoned requests are counted by why they were abandoned —
// only those the limiter admitted: one shed from the queue was never
// in flight, and leva_shed_total already counts it.
func (s *Server) withDeadline(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d, ok, err := parseDeadline(r.Header.Get(deadlineHeader))
		if err != nil {
			writeErrorReason(w, http.StatusBadRequest, "bad_deadline", "%v", err)
			return
		}
		parent := r.Context()
		admitted := new(atomic.Bool)
		ctx := context.WithValue(parent, admittedKey{}, admitted)
		if ok {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, d)
			defer cancel()
		}
		r = r.WithContext(ctx)
		h.ServeHTTP(w, r)
		if !admitted.Load() {
			return
		}
		switch {
		case ok && errors.Is(r.Context().Err(), context.DeadlineExceeded) && parent.Err() == nil:
			s.metrics.abandoned.With("deadline").Inc()
		case parent.Err() != nil:
			s.metrics.abandoned.With("disconnect").Inc()
		}
	})
}

// admittedKey keys the flag withDeadline puts in the request context
// and limit sets once the limiter admits the request. The flag is
// shared by pointer, so it survives the timeout handler deriving its
// own request context in between.
type admittedKey struct{}

// markAdmitted records in r's context that the limiter admitted r.
func markAdmitted(r *http.Request) {
	if a, ok := r.Context().Value(admittedKey{}).(*atomic.Bool); ok {
		a.Store(true)
	}
}

// The AIMD constants: the limit starts at its ceiling, each
// multiplicative decrease scales it by backoffRatio, and it never falls
// below minLimit, the trickle that keeps probing capacity during
// sustained overload.
const (
	minLimit     = 1
	backoffRatio = 0.75
)

// errSaturated: the limiter is at its limit and the queue is full or
// disabled. errQueueTimeout: a queued request waited the queue timeout
// without a slot freeing. Both shed with a 429.
var (
	errSaturated    = errors.New("admission: limiter saturated")
	errQueueTimeout = errors.New("admission: queue wait timed out")
)

// limiter is an adaptive (AIMD) concurrency limiter with a short
// bounded FIFO queue. Under healthy traffic it admits up to the
// current limit and the limit climbs back toward maxLimit; when
// admitted requests start getting dropped (expired deadlines or
// request timeouts) the limit shrinks multiplicatively, converting
// sustained overload into fast 429s instead of a growing pile of
// doomed work. docs/BENCHMARKING.md ("Admission under overload")
// measures it against a fixed limit.
type limiter struct {
	maxLimit     int
	queueLen     int
	queueTimeout time.Duration
	backoffs     *obs.Counter // leva_resilience_backoffs_total

	mu       sync.Mutex
	limit    float64
	inflight int
	waiters  *list.List // of *waiter, FIFO
}

// waiter is one queued acquire. granted is flipped under the limiter
// lock so a grant racing a timeout resolves exactly one way.
type waiter struct {
	ch      chan struct{}
	granted bool
}

// newLimiter returns a limiter at its ceiling maxLimit (≥ 1) that
// queues up to queueLen requests (0 sheds at once) for up to
// queueTimeout (> 0) each.
func newLimiter(maxLimit, queueLen int, queueTimeout time.Duration) *limiter {
	return &limiter{
		maxLimit:     maxLimit,
		queueLen:     queueLen,
		queueTimeout: queueTimeout,
		backoffs: obs.NewCounter(metricBackoffs,
			"Multiplicative decreases of the adaptive concurrency limit (each marks observed congestion)."),
		limit:   float64(maxLimit),
		waiters: list.New(),
	}
}

// acquire requests an admission slot, queueing briefly when the
// limiter is at its limit. On success it returns a release function
// the caller must invoke once, saying whether the request was dropped
// (the congestion signal). On failure it returns errSaturated,
// errQueueTimeout, or the context's error.
func (l *limiter) acquire(ctx context.Context) (release func(dropped bool), err error) {
	l.mu.Lock()
	if l.inflight < int(l.limit) {
		l.inflight++
		l.mu.Unlock()
		return l.releaseFunc(), nil
	}
	if l.waiters.Len() >= l.queueLen {
		l.mu.Unlock()
		return nil, errSaturated
	}
	w := &waiter{ch: make(chan struct{})}
	elem := l.waiters.PushBack(w)
	l.mu.Unlock()

	t := time.NewTimer(l.queueTimeout)
	defer t.Stop()
	select {
	case <-w.ch:
		return l.releaseFunc(), nil
	case <-t.C:
		err = errQueueTimeout
	case <-ctx.Done():
		err = ctx.Err()
	}
	l.mu.Lock()
	if w.granted {
		// The grant beat the timeout: the slot is ours after all — but
		// the caller is done waiting, so hand it straight back.
		l.inflight--
		l.grantLocked()
		l.mu.Unlock()
		return nil, err
	}
	l.waiters.Remove(elem)
	l.mu.Unlock()
	return nil, err
}

// releaseFunc builds the one-shot release closure for an admitted
// request.
func (l *limiter) releaseFunc() func(dropped bool) {
	var once sync.Once
	return func(dropped bool) {
		once.Do(func() { l.release(dropped) })
	}
}

func (l *limiter) release(dropped bool) {
	l.mu.Lock()
	if dropped {
		l.limit = math.Max(minLimit, l.limit*backoffRatio)
		l.backoffs.Inc()
	} else {
		// Additive increase: ~+1 per limit's worth of successes.
		l.limit = math.Min(float64(l.maxLimit), l.limit+1/l.limit)
	}
	l.inflight--
	l.grantLocked()
	l.mu.Unlock()
}

// grantLocked hands freed slots to queued waiters in FIFO order.
// Called with the lock held.
func (l *limiter) grantLocked() {
	for l.inflight < int(l.limit) && l.waiters.Len() > 0 {
		w := l.waiters.Remove(l.waiters.Front()).(*waiter)
		w.granted = true
		l.inflight++
		close(w.ch)
	}
}

// currentLimit returns the adaptive limit (fractional: the AIMD state
// between integer steps).
func (l *limiter) currentLimit() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.limit
}

// queueDepth returns the number of requests waiting for admission.
func (l *limiter) queueDepth() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.waiters.Len()
}
