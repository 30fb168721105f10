package serve

import (
	"context"
	"errors"
	"log/slog"
	"net/http"
	"runtime/debug"
	"time"
)

// statusRecorder captures the response status and size for metrics and
// request logging, and whether anything was written — the panic
// recovery path only sends its 500 when the handler died before
// responding.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
	wrote  bool
}

func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.wrote = true
	r.ResponseWriter.WriteHeader(status)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	r.wrote = true
	n, err := r.ResponseWriter.Write(p)
	r.bytes += n
	return n, err
}

// instrument wraps a handler with the serving middleware stack, from
// the outside in: metrics + structured logging, then panic recovery,
// then (for limited endpoints) client-deadline propagation, the
// per-request timeout, and the admission limiter. The limiter sits
// inside the timeout handler so a timed-out request's admission slot
// is released only when its work actually finishes —
// otherwise abandoned handlers could stack up past MaxInFlight. The
// deadline layer sits outside the timeout handler: TimeoutHandler
// derives its context from the request's, so whichever budget is
// shorter — client deadline or server timeout — cancels the work and
// produces the timed-out 503. Panic recovery sits outside the timeout
// handler because http.TimeoutHandler re-panics its handler's panics
// on the caller's goroutine.
func (s *Server) instrument(name string, limited bool, h http.Handler) http.Handler {
	if limited {
		h = s.limit(h)
		if s.cfg.RequestTimeout > 0 {
			// TimeoutHandler answers 503 and cancels the request
			// context, which the store checks between rows.
			h = http.TimeoutHandler(h, s.cfg.RequestTimeout, `{"error":"request timed out","reason":"timeout"}`)
		}
		h = s.withDeadline(h)
	}
	inner := h
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.metrics.inFlight.Add(1)
		defer s.metrics.inFlight.Add(-1)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		s.serveRecovered(name, inner, rec, r)
		elapsed := time.Since(start)
		s.metrics.observe(name, rec.status, elapsed)
		if s.logger != nil {
			s.logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.String("endpoint", name),
				slog.Int("status", rec.status),
				slog.Int("bytes", rec.bytes),
				slog.Duration("duration", elapsed),
				slog.String("remote", r.RemoteAddr),
			)
		}
	})
}

// serveRecovered runs the handler under a panic guard: a panicking
// request becomes a counted 500 (when nothing was written yet) instead
// of a dead daemon — one bad row must not take down every client's
// featurization. http.ErrAbortHandler keeps its net/http meaning and is
// re-raised.
func (s *Server) serveRecovered(name string, h http.Handler, rec *statusRecorder, r *http.Request) {
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		if v == http.ErrAbortHandler {
			panic(v)
		}
		s.metrics.panics.Inc()
		if s.logger != nil {
			s.logger.LogAttrs(r.Context(), slog.LevelError, "handler panic",
				slog.String("endpoint", name),
				slog.String("path", r.URL.Path),
				slog.Any("panic", v),
				slog.String("stack", string(debug.Stack())),
			)
		}
		if !rec.wrote {
			writeErrorReason(rec, http.StatusInternalServerError, "internal", "internal error")
		} else {
			rec.status = http.StatusInternalServerError
		}
	}()
	h.ServeHTTP(rec, r)
}

// limit is the adaptive admission controller: requests acquire a slot
// from the AIMD limiter (queueing briefly at the limit) and report on
// release whether they were dropped — a request whose deadline expired
// is the congestion signal that shrinks the limit. Shed requests get a
// 429 with a named reason and Retry-After: 1, so saturation degrades
// into fast, explicit, back-off-able rejections instead of unbounded
// queueing.
func (s *Server) limit(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		release, err := s.limiter.acquire(r.Context())
		if err != nil {
			// The leva_shed_total reasons: capacity (limit reached, queue
			// full or disabled), queue_timeout (queued too long),
			// deadline (X-Leva-Deadline-Ms or -request-timeout expired
			// while queued), client_gone (caller cancelled while queued).
			reason := "capacity"
			switch {
			case errors.Is(err, errQueueTimeout):
				reason = "queue_timeout"
			case errors.Is(err, context.DeadlineExceeded):
				reason = "deadline"
			case errors.Is(err, context.Canceled):
				reason = "client_gone"
			}
			s.metrics.shedByReason.With(reason).Inc()
			w.Header().Set("Retry-After", "1")
			writeErrorReason(w, http.StatusTooManyRequests, reason,
				"server saturated: concurrency limit %d reached", int(s.limiter.currentLimit()))
			return
		}
		markAdmitted(r)
		defer func() { release(errors.Is(r.Context().Err(), context.DeadlineExceeded)) }()
		h.ServeHTTP(w, r)
	})
}
