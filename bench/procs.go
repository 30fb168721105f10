package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// bins are the program's commands, built from the checkout under test.
type bins struct{ leva, levad, levagen string }

// buildBinaries compiles leva, levad and levagen from root into dir.
// The Go build cache makes this a link check when nothing changed.
func buildBinaries(root, dir string) (bins, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return bins{}, err
	}
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator),
		"./cmd/leva", "./cmd/levad", "./cmd/levagen")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return bins{}, fmt.Errorf("build leva, levad, levagen in %s: %w", root, err)
	}
	return bins{
		leva:    filepath.Join(dir, "leva"),
		levad:   filepath.Join(dir, "levad"),
		levagen: filepath.Join(dir, "levagen"),
	}, nil
}

// cmdResult is one finished command.
type cmdResult struct {
	stdout string
	wall   time.Duration
	rssKiB int64 // the child's peak resident set (getrusage maxrss)
}

// run executes bin to completion and times it from exec to exit.
func run(bin string, args ...string) (cmdResult, error) {
	cmd := exec.Command(bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	res := cmdResult{stdout: stdout.String(), wall: time.Since(start)}
	if err != nil {
		return res, fmt.Errorf("%s %s: %w\n%s", filepath.Base(bin), strings.Join(args, " "), err, stderr.String())
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.rssKiB = ru.Maxrss
	}
	return res, nil
}

// inputKey names one generated CSV in the pin file.
func inputKey(dataset string, scale float64, seed int64, file string) string {
	return fmt.Sprintf("%s@%s/seed=%d/%s", dataset, strconv.FormatFloat(scale, 'g', -1, 64), seed, file)
}

// readPins loads the pin file: one "<sha256>  <key>" line per CSV.
func readPins(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	pins := map[string]string{}
	for i, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line == "" || line[0] == '#' {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			return nil, fmt.Errorf("%s:%d: want \"<sha256>  <input>\"", path, i+1)
		}
		pins[f[1]] = f[0]
	}
	return pins, nil
}

// hashDir returns the SHA-256 of every CSV in dir, keyed by file name.
func hashDir(dir string) (map[string]string, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for _, p := range names {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		sum := sha256.Sum256(data)
		out[filepath.Base(p)] = hex.EncodeToString(sum[:])
	}
	return out, nil
}

// generate runs levagen into out and checks the CSVs against the pin
// file when it pins this (dataset, scale, seed): a change to the
// generators must not silently change a workload.
func (e *env) generate(dataset string, seed int64, out string) (time.Duration, error) {
	res, err := run(e.bins.levagen, "-dataset", dataset, "-scale", strconv.FormatFloat(e.scale, 'g', -1, 64),
		"-seed", strconv.FormatInt(seed, 10), "-out", out)
	if err != nil {
		return 0, err
	}
	sums, err := hashDir(out)
	if err != nil {
		return 0, err
	}
	if err := checkPins(e.pins, dataset, e.scale, seed, sums); err != nil {
		return 0, fmt.Errorf("%w (bench/testdata/inputs.sha256): the generator changed this workload", err)
	}
	return res.wall, nil
}

// checkPins compares one generated input directory's CSV hashes, keyed
// by file name, with the pins of its (dataset, scale, seed). When that
// triple has any pin, the generated files must be exactly the pinned
// files with the pinned hashes: a missing, extra or changed CSV is an
// error. An unpinned triple passes.
func checkPins(pins map[string]string, dataset string, scale float64, seed int64, sums map[string]string) error {
	prefix := inputKey(dataset, scale, seed, "")
	var pinned []string
	for key := range pins {
		if strings.HasPrefix(key, prefix) {
			pinned = append(pinned, strings.TrimPrefix(key, prefix))
		}
	}
	if len(pinned) == 0 {
		return nil
	}
	sort.Strings(pinned)
	for _, name := range pinned {
		if _, ok := sums[name]; !ok {
			return fmt.Errorf("input %s%s is pinned but was not generated", prefix, name)
		}
	}
	names := make([]string, 0, len(sums))
	for name := range sums {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want, ok := pins[prefix+name]
		switch {
		case !ok:
			return fmt.Errorf("input %s%s was generated but is not pinned", prefix, name)
		case want != sums[name]:
			return fmt.Errorf("input %s%s has sha256 %s, pinned %s", prefix, name, sums[name], want)
		}
	}
	return nil
}

// sameFiles reports whether two files hold identical bytes.
func sameFiles(a, b string) (bool, error) {
	da, err := os.ReadFile(a)
	if err != nil {
		return false, err
	}
	db, err := os.ReadFile(b)
	if err != nil {
		return false, err
	}
	return bytes.Equal(da, db), nil
}

// ctl is the client for control-plane calls: health, scrapes, reloads
// and post-run oracle samples. Load traffic never goes through it.
var ctl = &http.Client{Timeout: 30 * time.Second}

// levad is one running daemon.
type levad struct {
	cmd  *exec.Cmd
	addr string
	log  *os.File
	// done is closed once the process has exited; waitErr is then its
	// exit status.
	done    chan struct{}
	waitErr error
	once    sync.Once
	stopErr error
}

// daemons are the levads currently running, so that an interrupted
// benchmark still stops them before it exits.
var daemons = struct {
	sync.Mutex
	m map[*levad]bool
}{m: map[*levad]bool{}}

// stopDaemonsOnSignal makes SIGINT and SIGTERM stop every running levad,
// wait for it, and exit non-zero.
func stopDaemonsOnSignal() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		daemons.Lock()
		running := make([]*levad, 0, len(daemons.m))
		for l := range daemons.m {
			running = append(running, l)
		}
		daemons.Unlock()
		for _, l := range running {
			_ = l.stop()
		}
		fmt.Fprintln(os.Stderr, "bench: stopped by", sig)
		os.Exit(1)
	}()
}

// startLevad execs levad with args plus a loopback ephemeral address
// and returns once GET /healthz answers 200, with the time that took.
// Its stderr (one JSON log line per request) goes to logPath.
func startLevad(bin, logPath string, args []string) (*levad, time.Duration, error) {
	ready := logPath + ".addr"
	_ = os.Remove(ready)
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	args = append(append([]string(nil), args...), "-addr", "127.0.0.1:0", "-ready-file", ready)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	l := &levad{cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		l.waitErr = cmd.Wait()
		close(l.done)
	}()
	daemons.Lock()
	daemons.m[l] = true
	daemons.Unlock()
	giveUp := time.Now().Add(60 * time.Second)
	for {
		select {
		case <-l.done:
			_ = l.stop()
			return nil, 0, fmt.Errorf("levad exited during start-up (%v): %s", l.waitErr, tail(logPath))
		default:
		}
		if time.Now().After(giveUp) {
			_ = l.stop()
			return nil, 0, fmt.Errorf("levad not healthy after 60s: %s", tail(logPath))
		}
		if l.addr == "" {
			if b, err := os.ReadFile(ready); err == nil {
				l.addr = string(b)
			}
		}
		if l.addr != "" {
			if resp, err := ctl.Get(l.url("/healthz")); err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return l, time.Since(start), nil
				}
			}
		}
		time.Sleep(time.Millisecond)
	}
}

func (l *levad) url(path string) string { return "http://" + l.addr + path }

// stop sends SIGTERM, waits for the drain, and kills after 20 s. It is
// safe to call more than once, from more than one goroutine.
func (l *levad) stop() error {
	l.once.Do(func() {
		defer l.log.Close()
		_ = l.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-l.done:
			l.stopErr = l.waitErr
		case <-time.After(20 * time.Second):
			_ = l.cmd.Process.Kill()
			<-l.done
			l.stopErr = errors.New("levad did not drain within 20s; killed")
		}
		daemons.Lock()
		delete(daemons.m, l)
		daemons.Unlock()
	})
	return l.stopErr
}

// peakRSSMiB reads the daemon's VmHWM from /proc.
func (l *levad) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", l.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// scrape fetches and parses GET /metrics.
func (l *levad) scrape() (scrape, error) {
	resp, err := ctl.Get(l.url("/metrics"))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseProm(string(body))
}

// getJSON GETs path and decodes a 200 response into v.
func (l *levad) getJSON(path string, v any) error {
	resp, err := ctl.Get(l.url(path))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %d %s", path, resp.StatusCode, b)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// tail returns the last lines of a log file for error messages.
func tail(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 5 {
		lines = lines[len(lines)-5:]
	}
	return strings.Join(lines, "\n")
}
