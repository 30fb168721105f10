package durable

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// mappedRssKiB returns the summed Rss, in KiB, of this process's
// mappings of path as /proc/self/smaps reports them, and how many
// mappings of path there are. Skips the test off linux.
func mappedRssKiB(t *testing.T, path string) (kib, mappings int) {
	t.Helper()
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		t.Skipf("no /proc/self/smaps on this platform: %v", err)
	}
	defer f.Close()
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if !strings.HasSuffix(fields[0], ":") { // a mapping's header line
			in = strings.HasSuffix(line, " "+path)
			if in {
				mappings++
			}
			continue
		}
		if in && fields[0] == "Rss:" {
			n, err := strconv.Atoi(fields[1])
			if err != nil {
				t.Fatalf("smaps Rss line %q: %v", line, err)
			}
			kib += n
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return kib, mappings
}

// TestLoadVerifiedChunkBoundaries seals a file that spans two whole
// hashing chunks and a partial third, and flips one byte on each side
// of every chunk boundary, at the start and at the end: a mapped load
// must refuse each flip with the same named SHA-256 error a read load
// gives and leave no mapping behind, and must accept the untouched
// file. After a successful mapped load the check has dropped every
// page it hashed, so the mapping's Rss stays within one chunk instead
// of the whole file.
func TestLoadVerifiedChunkBoundaries(t *testing.T) {
	if !MapSupported {
		t.Skip("mmap unsupported on this platform")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "payload.bin")
	orig := bytes.Repeat([]byte("0123456789abcdef"), (5*verifyChunk/2+123)/16+1)[:5*verifyChunk/2+123]
	m := &Manifest{}
	m.Add("payload.bin", orig)
	write := func(data []byte) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	noWarn := func(msg string) { t.Errorf("unexpected warning: %s", msg) }

	for _, off := range []int{0, verifyChunk - 1, verifyChunk, 2 * verifyChunk, len(orig) - 1} {
		t.Run(fmt.Sprintf("flip@%d", off), func(t *testing.T) {
			corrupt := bytes.Clone(orig)
			corrupt[off] ^= 0xFF
			write(corrupt)
			_, _, readCheck := LoadVerified(path, m, false, noWarn)
			data, mapped, mapCheck := LoadVerified(path, m, true, noWarn)
			if mapCheck == nil || data != nil || mapped {
				t.Fatalf("mapped load accepted a flip at %d (mapped=%v, check %v)", off, mapped, mapCheck)
			}
			if !strings.Contains(mapCheck.Error(), "payload.bin fails its SHA-256 check") {
				t.Errorf("mapped load error does not name the SHA-256 check: %v", mapCheck)
			}
			if readCheck == nil || mapCheck.Error() != readCheck.Error() {
				t.Errorf("mapped load fails with %v, read load with %v", mapCheck, readCheck)
			}
			if _, n := mappedRssKiB(t, path); n != 0 {
				t.Errorf("%d mappings of %s left after a refused load", n, path)
			}
		})
	}

	write(orig)
	data, mapped, err := LoadVerified(path, m, true, noWarn)
	if err != nil || !mapped {
		t.Fatalf("untouched file: mapped=%v, error %v", mapped, err)
	}
	defer func() {
		if err := Unmap(data); err != nil {
			t.Fatal(err)
		}
	}()
	kib, n := mappedRssKiB(t, path)
	if n != 1 {
		t.Fatalf("%d mappings of %s after a mapped load, want 1", n, path)
	}
	if kib > verifyChunk>>10 {
		t.Errorf("mapping Rss is %d KiB after the check, want at most one %d KiB chunk (file is %d KiB)",
			kib, verifyChunk>>10, len(orig)>>10)
	}
	if !bytes.Equal(data, orig) {
		t.Error("mapped bytes differ from the file after their pages were dropped")
	}
}
