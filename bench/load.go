package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"net"
	"net/http"
	"time"
)

// request is one pre-encoded HTTP/1.1 request. id indexes the
// workload's request pool, so an oracle can recompute the answer; check
// asks the generator to keep the response body for that oracle.
type request struct {
	raw   []byte
	id    int
	check bool
}

// stream hands out a workload's pre-encoded requests in order, cycling
// through the pool. All encoding happens before the first phase starts.
type stream struct {
	pool []request
	next int
}

func (s *stream) take() *request {
	r := &s.pool[s.next%len(s.pool)]
	s.next++
	return r
}

// requestTimeout bounds one request on the wire.
const requestTimeout = 10 * time.Second

// httpConn is one keep-alive client connection. Requests are written as
// pre-encoded bytes and the response is read to its last byte, so the
// service time covers exactly what the server and the loopback do.
type httpConn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	buf  bytes.Buffer
}

func (h *httpConn) close() {
	if h.c != nil {
		h.c.Close()
		h.c, h.br = nil, nil
	}
}

// do sends raw and reads the whole response. The body is returned only
// when keep is set (a copy; the read buffer is reused).
func (h *httpConn) do(raw []byte, keep bool) (status int, body []byte, err error) {
	if h.c == nil {
		c, err := net.Dial("tcp", h.addr)
		if err != nil {
			return 0, nil, err
		}
		h.c, h.br = c, bufio.NewReaderSize(c, 64<<10)
	}
	// A hung server must fail the request, not stall the phase.
	if err := h.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		h.close()
		return 0, nil, err
	}
	if _, err := h.c.Write(raw); err != nil {
		h.close()
		return 0, nil, err
	}
	resp, err := http.ReadResponse(h.br, nil)
	if err != nil {
		h.close()
		return 0, nil, err
	}
	h.buf.Reset()
	_, err = h.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		h.close()
		return 0, nil, err
	}
	if resp.Close {
		h.close()
	}
	if keep {
		body = bytes.Clone(h.buf.Bytes())
	}
	return resp.StatusCode, body, nil
}

// account splits one request's timeline. due is when the schedule said
// to send it, freeAt when the connection it went out on finished its
// previous request, sendStart/end bracket the write and the read of the
// last response byte. The latency a user sees is the wait for a
// connection plus the service time; the gap between the moment both the
// due time and a free connection were there and the actual send is the
// generator's own lateness (timer oversleep, goroutine hand-off) and is
// reported separately, never charged to the system.
func account(due, freeAt, sendStart, end time.Time) (latency, connWait, late time.Duration) {
	ready := due
	if freeAt.After(due) {
		connWait = freeAt.Sub(due)
		ready = freeAt
	}
	if late = sendStart.Sub(ready); late < 0 {
		late = 0
	}
	return connWait + end.Sub(sendStart), connWait, late
}

// phase is one fixed-rate open-loop stretch of load.
type phase struct {
	name  string
	rate  float64
	dur   time.Duration
	trace bool // record client spans while it runs
}

// sample is the outcome of one request.
type sample struct {
	id                  int
	due, sendStart, end time.Time
	latency, wait, late time.Duration
	status              int
	err                 error
	body                []byte
	sent                bool
}

// phaseResult summarizes a phase. Lat holds every scheduled request's
// latency in ms, +Inf for a failed or never-sent request (a refused
// request misses every latency limit).
type phaseResult struct {
	name     string
	rate     float64
	n        int
	failed   int
	achieved float64
	lat      []float64
	connWait []float64 // µs
	late     []float64 // µs
	service  []float64 // µs, successful requests
	samples  []sample
	spans    []span
}

func (p *phaseResult) latP(q float64) (float64, int) {
	return percentile(sortedCopy(p.lat), q)
}

// windowSize is the number of consecutive requests per p99 window: the
// smallest count whose nearest-rank p99 has ten samples beyond it.
const windowSize = 1000

// windowedP99 is the median, over consecutive windows of windowSize
// requests in schedule order, of each window's p99. One stall of the
// host (another tenant, a page-cache flush) then moves one window
// instead of the whole phase's tail. It falls back to the phase p99
// when the phase is shorter than one window, and returns the number of
// windows used.
func (p *phaseResult) windowedP99() (float64, int) {
	if len(p.lat) < windowSize {
		v, _ := p.latP(0.99)
		return v, 0
	}
	var p99s []float64
	for lo := 0; lo+windowSize <= len(p.lat); lo += windowSize {
		v, _ := percentile(sortedCopy(p.lat[lo:lo+windowSize]), 0.99)
		p99s = append(p99s, v)
	}
	return median(p99s), len(p99s)
}

// valid reports whether the generator kept its schedule: a phase that
// sent below 0.99x its offered rate, or whose own lateness p99 exceeded
// 2 ms, measured the generator rather than the server.
func (p *phaseResult) valid() bool {
	late, _ := percentile(sortedCopy(p.late), 0.99)
	return p.achieved >= 0.99*p.rate && late <= 2000
}

// generator drives open-loop load from one process over a fixed set of
// keep-alive connections.
type generator struct {
	conns []*httpConn
}

func newGenerator(addr string, nconns int) *generator {
	g := &generator{}
	for i := 0; i < nconns; i++ {
		g.conns = append(g.conns, &httpConn{addr: addr})
	}
	return g
}

func (g *generator) close() {
	for _, c := range g.conns {
		c.close()
	}
}

type job struct {
	i      int
	req    *request
	due    time.Time
	freeAt time.Time
}

type worker struct {
	conn   *httpConn
	jobs   chan job
	freeAt time.Time
	spans  []span
}

// run sends rate*dur requests from st on a uniform schedule. A request
// is handed to the connection that became free first; when none is
// free it waits, and that wait is part of its latency. Requests still
// unsent once the phase overruns its length by half (at least 1 s) are
// abandoned and count as failed, so an overloaded step ends.
func (g *generator) run(ph phase, st *stream) *phaseResult {
	n := int(math.Round(ph.rate * ph.dur.Seconds()))
	res := &phaseResult{name: ph.name, rate: ph.rate, n: n, samples: make([]sample, n)}
	free := make(chan *worker, len(g.conns))
	done := make(chan struct{}, len(g.conns))
	workers := make([]*worker, len(g.conns))
	for k, c := range g.conns {
		w := &worker{conn: c, jobs: make(chan job)}
		workers[k] = w
		free <- w
		go func() {
			for j := range w.jobs {
				sendStart := time.Now()
				status, body, err := w.conn.do(j.req.raw, j.req.check)
				end := time.Now()
				lat, wait, late := account(j.due, j.freeAt, sendStart, end)
				res.samples[j.i] = sample{
					id: j.req.id, due: j.due, sendStart: sendStart, end: end,
					latency: lat, wait: wait, late: late,
					status: status, err: err, body: body, sent: true,
				}
				if ph.trace {
					w.spans = append(w.spans, clientSpans(j.i, j.due, wait, sendStart, end)...)
				}
				w.freeAt = end
				free <- w
			}
			done <- struct{}{}
		}()
	}

	grace := ph.dur / 2
	if grace < time.Second {
		grace = time.Second
	}
	start := time.Now().Add(time.Millisecond)
	deadline := time.NewTimer(time.Until(start.Add(ph.dur + grace)))
	defer deadline.Stop()
	interval := float64(time.Second) / ph.rate
sched:
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) * interval))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		var w *worker
		select {
		case w = <-free:
		case <-deadline.C:
			break sched
		}
		w.jobs <- job{i: i, req: st.take(), due: due, freeAt: w.freeAt}
	}
	for _, w := range workers {
		close(w.jobs)
	}
	for range workers {
		<-done
	}
	for _, w := range workers {
		res.spans = append(res.spans, w.spans...)
	}
	res.summarize(start)
	return res
}

// summarize fills the derived series from the raw samples.
func (p *phaseResult) summarize(start time.Time) {
	var lastSend time.Time
	sent := 0
	for i := range p.samples {
		s := &p.samples[i]
		if !s.sent {
			p.failed++
			p.lat = append(p.lat, math.Inf(1))
			continue
		}
		sent++
		if s.sendStart.After(lastSend) {
			lastSend = s.sendStart
		}
		p.connWait = append(p.connWait, us(s.wait))
		p.late = append(p.late, us(s.late))
		if s.err != nil || s.status != http.StatusOK {
			p.failed++
			p.lat = append(p.lat, math.Inf(1))
			continue
		}
		p.lat = append(p.lat, ms(s.latency))
		p.service = append(p.service, us(s.end.Sub(s.sendStart)))
	}
	if sent > 1 {
		p.achieved = float64(sent-1) / lastSend.Sub(start).Seconds()
	}
}

// failures describes the first few failed requests, for the log.
func (p *phaseResult) failures() string {
	var b bytes.Buffer
	shown := 0
	for _, s := range p.samples {
		if shown == 3 {
			break
		}
		switch {
		case !s.sent:
			fmt.Fprintf(&b, " [unsent]")
		case s.err != nil:
			fmt.Fprintf(&b, " [%v]", s.err)
		case s.status != http.StatusOK:
			fmt.Fprintf(&b, " [status %d]", s.status)
		default:
			continue
		}
		shown++
	}
	return b.String()
}

// bisectMaxRPS searches [lo, hi] in steps halvings for the highest rate
// at which pass holds, assuming pass is monotone in the rate. It
// returns 0 when no probed rate passed.
func bisectMaxRPS(lo, hi float64, steps int, pass func(rate float64) bool) float64 {
	best := 0.0
	for i := 0; i < steps; i++ {
		mid := math.Round((lo + hi) / 2)
		if pass(mid) {
			best, lo = mid, mid
		} else {
			hi = mid
		}
	}
	return best
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
