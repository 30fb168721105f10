package serve

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"time"

	"repro/internal/resilience"
)

// withDeadline folds the client's X-Leva-Deadline-Ms budget into the
// request context. The per-request timeout handler derives its context
// from it, so whichever budget is shorter answers the timed-out 503.
// Featurization checks it between rows; a neighbor search takes no
// context and runs to completion (tens of µs), its answer dropped for
// the 503. Abandoned requests are counted by why they were abandoned.
func (s *Server) withDeadline(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d, ok, err := resilience.ParseDeadline(r.Header.Get(resilience.DeadlineHeader))
		if err != nil {
			writeErrorReason(w, http.StatusBadRequest, "bad_deadline", "%v", err)
			return
		}
		parent := r.Context()
		if ok {
			ctx, cancel := context.WithTimeout(parent, d)
			defer cancel()
			r = r.WithContext(ctx)
		}
		h.ServeHTTP(w, r)
		switch {
		case ok && errors.Is(r.Context().Err(), context.DeadlineExceeded) && parent.Err() == nil:
			s.metrics.abandoned.With("deadline").Inc()
		case parent.Err() != nil:
			s.metrics.abandoned.With("disconnect").Inc()
		}
	})
}

// retryAfterHeader sets Retry-After, rounding d up to whole seconds
// with a floor of 1 (the header is integer-valued, and 0 would invite
// an immediate stampede).
func retryAfterHeader(w http.ResponseWriter, d time.Duration) {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}
