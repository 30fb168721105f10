package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/resilience"
)

// chaosHTTP is the request-level chaos target (see withChaosHTTP).
const chaosHTTP = "http"

// chaosTargets are the chaos targets the server consults: only "http",
// in the request middleware. A rule for any other target would arm
// nothing, so one is refused instead.
var chaosTargets = []string{chaosHTTP}

// ErrUnknownChaosTarget reports a chaos rule for a target the server
// never consults.
var ErrUnknownChaosTarget = errors.New("serve: unknown chaos target")

// CheckChaosTargets rejects a chaos source holding a rule for a target
// outside the consulted set, naming the target. levad calls it on its
// -chaos spec; POST /admin/chaos applies the same check per rule.
func CheckChaosTargets(c *resilience.Chaos) error {
	for _, target := range c.Targets() {
		if err := checkChaosTarget(target); err != nil {
			return err
		}
	}
	return nil
}

func checkChaosTarget(target string) error {
	if slices.Contains(chaosTargets, target) {
		return nil
	}
	return fmt.Errorf("%w %q (consulted targets: %s)", ErrUnknownChaosTarget, target, strings.Join(chaosTargets, ", "))
}

// depReload names the reload breaker in metrics and /healthz.
const depReload = "reload"

// newReloadBreaker builds the breaker guarding hot reload, wired into
// the state gauge and transition counter.
func (s *Server) newReloadBreaker() *resilience.Breaker {
	b := resilience.NewBreaker(resilience.BreakerConfig{
		FailureThreshold: s.cfg.BreakerFailures,
		OpenFor:          s.cfg.BreakerOpenFor,
		OnStateChange: func(from, to resilience.State) {
			s.metrics.breakerState.With(depReload).Set(float64(to))
			s.metrics.breakerTransitions.With(depReload, to.String()).Inc()
			if s.logger != nil {
				s.logger.Info("breaker transition",
					"dep", depReload, "from", from.String(), "to", to.String())
			}
		},
	})
	s.metrics.breakerState.With(depReload).Set(float64(resilience.StateClosed))
	return b
}

// withDeadline folds the client's X-Leva-Deadline-Ms budget into the
// request context. The per-request timeout handler derives its context
// from it, so whichever budget is shorter answers the timed-out 503.
// Injected chaos latency gives up at it and featurization checks it
// between rows; a neighbor search takes no context and runs to
// completion (tens of µs), its answer dropped for the 503. Abandoned
// requests are counted by why they were abandoned.
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

// withChaosHTTP is the request-level chaos layer: per the "http" target
// rule it delays requests, fails them outright with a named 503, or
// stalls their response bodies mid-write. Inert unless the server was
// built with a chaos source and it is enabled.
func (s *Server) withChaosHTTP(h http.Handler) http.Handler {
	if s.chaos == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d := s.chaos.Decide(chaosHTTP)
		if d.Delay > 0 {
			if resilience.Sleep(r.Context(), d.Delay) != nil {
				writeErrorReason(w, http.StatusServiceUnavailable, "deadline_exceeded",
					"request abandoned during injected latency")
				return
			}
		}
		if d.Err {
			writeErrorReason(w, http.StatusServiceUnavailable, "chaos_injected",
				"chaos: injected request failure")
			return
		}
		if d.Stall {
			w = &stallWriter{ResponseWriter: w, ctx: r.Context(), stall: d.StallFor}
		}
		h.ServeHTTP(w, r)
	})
}

// stallWriter injects a mid-body hang: the first write is split after
// one byte and the remainder held back for the stall duration. The
// response stays complete and valid — the fault is the hang itself,
// which clients without read deadlines will feel and clients with them
// will abandon.
type stallWriter struct {
	http.ResponseWriter
	ctx     context.Context
	stall   time.Duration
	stalled bool
}

func (sw *stallWriter) Write(p []byte) (int, error) {
	if sw.stalled || len(p) < 2 {
		return sw.ResponseWriter.Write(p)
	}
	sw.stalled = true
	n, err := sw.ResponseWriter.Write(p[:1])
	if err != nil {
		return n, err
	}
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
	_ = resilience.Sleep(sw.ctx, sw.stall)
	m, err := sw.ResponseWriter.Write(p[1:])
	return n + m, err
}

// chaosState is the GET /admin/chaos response and the POST body: a
// millisecond-typed wire form of the chaos source's configuration.
type chaosState struct {
	Enabled bool                 `json:"enabled"`
	Seed    int64                `json:"seed"`
	Rules   map[string]chaosRule `json:"rules"`
}

type chaosRule struct {
	ErrRate     float64 `json:"errRate"`
	LatencyMs   float64 `json:"latencyMs"`
	LatencyRate float64 `json:"latencyRate"`
	StallRate   float64 `json:"stallRate"`
	StallForMs  float64 `json:"stallForMs"`
}

// handleChaos is GET/POST /admin/chaos — the runtime window into the
// chaos harness. GET reports the current configuration; POST updates
// it (partial: only provided fields change; a provided seed resets the
// fault schedule). Servers started without -chaos answer 503: fault
// injection can never be switched on in a process that was not
// deliberately launched with it.
func (s *Server) handleChaos(w http.ResponseWriter, r *http.Request) {
	if s.chaos == nil {
		writeErrorReason(w, http.StatusServiceUnavailable, "chaos_disabled",
			"no chaos source configured (start levad with -chaos)")
		return
	}
	if r.Method == http.MethodPost {
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		var req struct {
			Enabled *bool                `json:"enabled"`
			Seed    *int64               `json:"seed"`
			Rules   map[string]chaosRule `json:"rules"`
		}
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "malformed request: %v", err)
			return
		}
		for target := range req.Rules {
			if err := checkChaosTarget(target); err != nil {
				writeErrorReason(w, http.StatusBadRequest, "unknown_chaos_target", "%v", err)
				return
			}
		}
		if req.Seed != nil {
			s.chaos.Reseed(*req.Seed)
		}
		for target, rule := range req.Rules {
			s.chaos.SetRule(target, resilience.Rule{
				ErrRate:     rule.ErrRate,
				Latency:     time.Duration(rule.LatencyMs * float64(time.Millisecond)),
				LatencyRate: rule.LatencyRate,
				StallRate:   rule.StallRate,
				StallFor:    time.Duration(rule.StallForMs * float64(time.Millisecond)),
			})
		}
		if req.Enabled != nil {
			s.chaos.Enable(*req.Enabled)
			if *req.Enabled {
				s.metrics.chaosEnabled.Set(1)
			} else {
				s.metrics.chaosEnabled.Set(0)
			}
		}
	}
	state := chaosState{
		Enabled: s.chaos.Enabled(),
		Seed:    s.chaos.Seed(),
		Rules:   map[string]chaosRule{},
	}
	for _, target := range s.chaos.Targets() {
		rule := s.chaos.RuleFor(target)
		state.Rules[target] = chaosRule{
			ErrRate:     rule.ErrRate,
			LatencyMs:   float64(rule.Latency) / float64(time.Millisecond),
			LatencyRate: rule.LatencyRate,
			StallRate:   rule.StallRate,
			StallForMs:  float64(rule.StallFor) / float64(time.Millisecond),
		}
	}
	writeJSON(w, http.StatusOK, state)
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
