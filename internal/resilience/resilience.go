// Package resilience is the serving daemon's overload substrate: the
// pieces that keep levad answering, in bounded time, when traffic
// exceeds capacity.
//
// It carries two independent, dependency-free mechanisms:
//
//   - Deadline propagation (ParseDeadline): clients declare how long
//     they will wait via the X-Leva-Deadline-Ms header; the serving
//     layer folds that into the request context so work is abandoned
//     the moment its caller stops waiting.
//   - Adaptive admission control (Limiter): an AIMD concurrency
//     limiter with a short bounded queue. The limit climbs additively
//     while requests succeed and backs off multiplicatively when they
//     time out, so sustained overload degrades into fast, explicit
//     429s whose Retry-After is derived from observed service time.
//
// Everything is deterministic under test: the limiter's adjustments
// are pure functions of the outcomes fed to it.
// internal/serve wires these into the HTTP stack; see
// docs/SERVING.md (API surface) and docs/OPERATIONS.md (the overload
// & brownout runbook).
package resilience

import (
	"fmt"
	"strconv"
	"time"
)

// DeadlineHeader is the request header carrying the client's total
// willingness to wait, in integer milliseconds. A server that cannot
// answer within it should stop working on the request: the client is
// already gone.
const DeadlineHeader = "X-Leva-Deadline-Ms"

// ParseDeadline interprets a DeadlineHeader value. An empty value
// means the client declared no deadline (ok=false, no error); a
// non-integer, zero, or negative value is a client error.
func ParseDeadline(value string) (d time.Duration, ok bool, err error) {
	if value == "" {
		return 0, false, nil
	}
	ms, err := strconv.ParseInt(value, 10, 64)
	if err != nil {
		return 0, false, fmt.Errorf("resilience: %s: %q is not an integer millisecond count", DeadlineHeader, value)
	}
	if ms <= 0 {
		return 0, false, fmt.Errorf("resilience: %s: deadline must be positive, got %d", DeadlineHeader, ms)
	}
	return time.Duration(ms) * time.Millisecond, true, nil
}
