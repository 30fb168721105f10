package resilience

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Rule is the fault profile for one chaos target. Rates are
// probabilities in [0, 1]; a zero rule injects nothing.
type Rule struct {
	// ErrRate is the probability of failing the call outright.
	ErrRate float64
	// Latency is the delay injected with probability LatencyRate.
	Latency time.Duration
	// LatencyRate defaults to 1 when Latency is set and the rate is 0.
	LatencyRate float64
	// StallRate is the probability of stalling the response body
	// mid-write (HTTP targets only).
	StallRate float64
	// StallFor is how long a stalled body hangs. Default 250ms.
	StallFor time.Duration
}

func (r Rule) withDefaults() Rule {
	if r.Latency > 0 && r.LatencyRate == 0 {
		r.LatencyRate = 1
	}
	if r.StallRate > 0 && r.StallFor == 0 {
		r.StallFor = 250 * time.Millisecond
	}
	return r
}

// active reports whether the rule can inject anything.
func (r Rule) active() bool {
	return r.ErrRate > 0 || (r.Latency > 0 && r.LatencyRate > 0) || r.StallRate > 0
}

// Decision is one draw from the chaos source: what to inject into the
// current call against a target.
type Decision struct {
	// Delay is extra latency to impose before the real work (zero =
	// none). Sleep it with Sleep so a caller deadline still wins.
	Delay time.Duration
	// Err, when true, fails the call instead of running it.
	Err bool
	// Stall, when true, hangs the response body mid-write for StallFor.
	Stall bool
	// StallFor is the stall duration when Stall is set.
	StallFor time.Duration
}

// Chaos is a seeded fault source. All draws come from one PRNG, so a
// fixed seed plus a fixed call sequence yields a fixed fault schedule —
// the property the chaos test suite and the check.sh drill rely on to
// replay the same faults.
//
// Chaos is always constructed explicitly (levad's -chaos flag, a test)
// and starts enabled; it can be toggled and re-profiled at runtime via
// Enable/SetRule (POST /admin/chaos). A nil *Chaos is inert.
type Chaos struct {
	mu      sync.Mutex
	rng     *rand.Rand
	seed    int64
	enabled bool
	rules   map[string]Rule

	// OnInject, when set, observes every injected fault as (target,
	// kind) with kind one of "error", "latency", "stall". Set once at
	// wiring time, before traffic.
	OnInject func(target, kind string)
}

// NewChaos returns an enabled chaos source with no rules.
func NewChaos(seed int64) *Chaos {
	return &Chaos{
		rng:     rand.New(rand.NewSource(seed)),
		seed:    seed,
		enabled: true,
		rules:   make(map[string]Rule),
	}
}

// ParseSpec builds a Chaos from the -chaos flag syntax:
//
//	seed=<n>;<target>:<key>=<value>[,<key>=<value>...];...
//
// Targets are free-form names here; the consumer decides which it
// consults (levad: only "http", see serve.CheckChaosTargets). Keys:
// err=<rate>, lat=<duration>, latrate=<rate>, stall=<rate>,
// stallfor=<duration>. Example:
//
//	seed=1;http:err=0.3,lat=400ms,stall=0.05
//
// A spec of just "seed=<n>" (or "") yields an enabled source with no
// rules — faults can then be added at runtime via /admin/chaos.
func ParseSpec(spec string) (*Chaos, error) {
	c := NewChaos(1)
	for _, section := range strings.Split(spec, ";") {
		section = strings.TrimSpace(section)
		if section == "" {
			continue
		}
		if v, ok := strings.CutPrefix(section, "seed="); ok {
			seed, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("resilience: chaos spec: bad seed %q", v)
			}
			c.Reseed(seed)
			continue
		}
		target, assigns, ok := strings.Cut(section, ":")
		if !ok || target == "" {
			return nil, fmt.Errorf("resilience: chaos spec: section %q is neither seed=<n> nor <target>:<key>=<value>,...", section)
		}
		rule := c.RuleFor(target)
		for _, assign := range strings.Split(assigns, ",") {
			key, val, ok := strings.Cut(strings.TrimSpace(assign), "=")
			if !ok {
				return nil, fmt.Errorf("resilience: chaos spec: %q is not <key>=<value>", assign)
			}
			var err error
			switch key {
			case "err":
				rule.ErrRate, err = parseRate(val)
			case "lat":
				rule.Latency, err = time.ParseDuration(val)
			case "latrate":
				rule.LatencyRate, err = parseRate(val)
			case "stall":
				rule.StallRate, err = parseRate(val)
			case "stallfor":
				rule.StallFor, err = time.ParseDuration(val)
			default:
				return nil, fmt.Errorf("resilience: chaos spec: unknown key %q (want err, lat, latrate, stall, stallfor)", key)
			}
			if err != nil {
				return nil, fmt.Errorf("resilience: chaos spec: %s=%s: %w", key, val, err)
			}
		}
		c.SetRule(target, rule)
	}
	return c, nil
}

func parseRate(s string) (float64, error) {
	rate, err := strconv.ParseFloat(s, 64)
	if err != nil || rate < 0 || rate > 1 {
		return 0, fmt.Errorf("want a probability in [0, 1], got %q", s)
	}
	return rate, nil
}

// Reseed resets the PRNG to a fresh sequence from seed, so drills can
// be replayed.
func (c *Chaos) Reseed(seed int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seed = seed
	c.rng = rand.New(rand.NewSource(seed))
}

// Enable turns injection on or off without touching the rules.
func (c *Chaos) Enable(on bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.enabled = on
}

// Enabled reports whether Decide may inject. A nil Chaos is disabled.
func (c *Chaos) Enabled() bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.enabled
}

// SetRule installs (or replaces) the fault profile for a target.
func (c *Chaos) SetRule(target string, r Rule) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rules[target] = r.withDefaults()
}

// RuleFor returns the target's current rule (zero Rule when unset).
func (c *Chaos) RuleFor(target string) Rule {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rules[target]
}

// Seed returns the seed of the current PRNG sequence.
func (c *Chaos) Seed() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seed
}

// Targets returns the configured target names, sorted.
func (c *Chaos) Targets() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.rules))
	for t := range c.rules {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Decide draws one fault decision for a call against target. Disabled
// sources, nil sources, and targets without an active rule never
// inject — and never consume PRNG draws, so drill sequences stay
// aligned with the faults actually possible.
func (c *Chaos) Decide(target string) Decision {
	if c == nil {
		return Decision{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	rule := c.rules[target]
	if !c.enabled || !rule.active() {
		return Decision{}
	}
	var d Decision
	if rule.ErrRate > 0 && c.rng.Float64() < rule.ErrRate {
		d.Err = true
	}
	if rule.Latency > 0 && rule.LatencyRate > 0 && c.rng.Float64() < rule.LatencyRate {
		d.Delay = rule.Latency
	}
	if rule.StallRate > 0 && c.rng.Float64() < rule.StallRate {
		d.Stall = true
		d.StallFor = rule.StallFor
	}
	c.count(target, d)
	return d
}

// count reports injected faults to OnInject. Called with the lock
// held; the callback must not call back into the Chaos.
func (c *Chaos) count(target string, d Decision) {
	if c.OnInject == nil {
		return
	}
	if d.Err {
		c.OnInject(target, "error")
	}
	if d.Delay > 0 {
		c.OnInject(target, "latency")
	}
	if d.Stall {
		c.OnInject(target, "stall")
	}
}

// Sleep waits for d or until ctx is done, returning ctx's error when
// the caller stopped waiting first — injected latency must never
// outlive the request it was injected into.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
