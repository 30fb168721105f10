package main

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// promSample is one line of Prometheus text exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape is one parsed GET /metrics body.
type scrape []promSample

// parseProm parses the Prometheus text format levad serves: comment
// lines are skipped, every other line is `name{k="v",...} value`.
func parseProm(text string) (scrape, error) {
	var out scrape
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		l := strings.TrimSpace(sc.Text())
		if l == "" || l[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(l, ' ')
		if cut < 0 {
			return nil, fmt.Errorf("metrics line %d: no value: %q", line, l)
		}
		v, err := strconv.ParseFloat(l[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		s := promSample{name: l[:cut], value: v}
		if open := strings.IndexByte(s.name, '{'); open >= 0 {
			if !strings.HasSuffix(s.name, "}") {
				return nil, fmt.Errorf("metrics line %d: unterminated labels: %q", line, l)
			}
			labels, err := parseLabels(s.name[open+1 : len(s.name)-1])
			if err != nil {
				return nil, fmt.Errorf("metrics line %d: %w", line, err)
			}
			s.name, s.labels = s.name[:open], labels
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// parseLabels parses `k="v",k2="v2"` with the exposition format's
// escapes (\\, \", \n) inside values.
func parseLabels(s string) (map[string]string, error) {
	labels := map[string]string{}
	for s != "" {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return nil, fmt.Errorf("bad label pair in %q", s)
		}
		key := s[:eq]
		var val strings.Builder
		i := eq + 2
		for ; i < len(s) && s[i] != '"'; i++ {
			if s[i] == '\\' && i+1 < len(s) {
				i++
				if s[i] == 'n' {
					val.WriteByte('\n')
					continue
				}
			}
			val.WriteByte(s[i])
		}
		if i >= len(s) {
			return nil, fmt.Errorf("unterminated label value in %q", s)
		}
		labels[key] = val.String()
		s = strings.TrimPrefix(s[i+1:], ",")
	}
	return labels, nil
}

// sum adds every series of the named family whose labels include match.
func (sc scrape) sum(name string, match map[string]string) float64 {
	total := 0.0
outer:
	for _, s := range sc {
		if s.name != name {
			continue
		}
		for k, v := range match {
			if s.labels[k] != v {
				continue outer
			}
		}
		total += s.value
	}
	return total
}

// delta is a counter's growth between two scrapes.
func delta(before, after scrape, name string, match map[string]string) float64 {
	return after.sum(name, match) - before.sum(name, match)
}

// histQuantile estimates the q-quantile of the observations a histogram
// family received between two scrapes, interpolating linearly inside
// the bucket that holds it (as Prometheus' histogram_quantile does). It
// returns NaN when nothing was observed.
func histQuantile(before, after scrape, name string, match map[string]string, q float64) float64 {
	type bucket struct{ le, count float64 }
	counts := map[float64]float64{}
	for _, set := range []struct {
		sc   scrape
		sign float64
	}{{before, -1}, {after, 1}} {
		for _, s := range set.sc {
			if s.name != name+"_bucket" {
				continue
			}
			ok := true
			for k, v := range match {
				if s.labels[k] != v {
					ok = false
				}
			}
			if !ok {
				continue
			}
			le, err := strconv.ParseFloat(s.labels["le"], 64)
			if err != nil {
				continue
			}
			counts[le] += set.sign * s.value
		}
	}
	var bs []bucket
	for le, c := range counts {
		bs = append(bs, bucket{le, c})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].count <= 0 {
		return math.NaN()
	}
	total := bs[len(bs)-1].count
	want := q * total
	prevLE, prevCount := 0.0, 0.0
	for _, b := range bs {
		if b.count >= want {
			if math.IsInf(b.le, 1) {
				return prevLE
			}
			if b.count == prevCount {
				return b.le
			}
			return prevLE + (b.le-prevLE)*(want-prevCount)/(b.count-prevCount)
		}
		prevLE, prevCount = b.le, b.count
	}
	return prevLE
}
