package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestAccountFakeClock(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	for _, tc := range []struct {
		name                     string
		due, freeAt, send, end   int // µs after t0
		latency, connWait, lateU int // µs
	}{
		// The connection sat idle; the timer overslept by 500 µs. The
		// oversleep is the generator's, not the system's.
		{"idle connection, oversleep", 100, 0, 600, 900, 300, 0, 500},
		// On time and idle: latency is the service time.
		{"idle connection, on time", 100, 50, 100, 400, 300, 0, 0},
		// The only connection was busy until 700: the request waited
		// 600 µs for it, and that wait is latency.
		{"busy connection", 100, 700, 700, 1000, 900, 600, 0},
		// Busy until 700, handed over 50 µs after it freed: only the
		// hand-off is generator lateness.
		{"busy connection, slow hand-off", 100, 700, 750, 1050, 900, 600, 50},
	} {
		lat, wait, late := account(at(tc.due), at(tc.freeAt), at(tc.send), at(tc.end))
		us := func(d time.Duration) int { return int(d / time.Microsecond) }
		if us(lat) != tc.latency || us(wait) != tc.connWait || us(late) != tc.lateU {
			t.Errorf("%s: latency %d µs, conn wait %d µs, late %d µs; want %d, %d, %d",
				tc.name, us(lat), us(wait), us(late), tc.latency, tc.connWait, tc.lateU)
		}
	}
}

// TestGeneratorCountsConnectionWait drives one connection faster than
// the server answers: later requests queue for the connection, and
// that queueing shows up as connection wait and latency.
func TestGeneratorCountsConnectionWait(t *testing.T) {
	const service = 4 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
		w.Write([]byte("ok"))
	}))
	defer srv.Close()
	g := newGenerator(strings.TrimPrefix(srv.URL, "http://"), 1)
	defer g.close()
	st := &stream{pool: []request{{raw: httpGet("/")}}}
	p := g.run(phase{name: "overload", rate: 400, dur: 250 * time.Millisecond}, st)
	if p.failed != 0 {
		t.Fatalf("%d of %d requests failed:%s", p.failed, p.n, p.failures())
	}
	wait, _ := percentile(sortedCopy(p.connWait), 0.99)
	if wait < float64(20*time.Millisecond/time.Microsecond) {
		t.Errorf("conn wait p99 = %.0f µs; a 4 ms server at 400 req/s on one connection must queue", wait)
	}
	lat, _ := p.latP(0.99)
	if lat < ms(service)+wait/1e3-1 {
		t.Errorf("latency p99 %.3f ms does not include the connection wait (%.0f µs)", lat, wait)
	}
}

func TestBisectMaxRPS(t *testing.T) {
	// Synthetic curve: p99 = 1 ms + (rate/1000)^2 ms, so the 5 ms limit
	// is met up to exactly 2000 req/s.
	p99 := func(rate float64) float64 { return 1 + (rate/1000)*(rate/1000) }
	var probed []float64
	got := bisectMaxRPS(1000, 8000, 5, func(rate float64) bool {
		probed = append(probed, rate)
		return p99(rate) <= 5
	})
	if len(probed) != 5 {
		t.Fatalf("probed %v, want 5 steps", probed)
	}
	resolution := (8000.0 - 1000) / 32
	if got > 2000 || got < 2000-resolution {
		t.Errorf("max_rps = %g, want within %g below 2000 (probed %v)", got, resolution, probed)
	}
	if got := bisectMaxRPS(3000, 8000, 5, func(float64) bool { return false }); got != 0 {
		t.Errorf("max_rps with no passing step = %g, want 0", got)
	}
}
