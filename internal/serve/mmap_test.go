package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ann"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/embed"
	"repro/internal/synth"
)

// countMappings returns how many /proc/self/maps entries reference
// substr (a bundle directory path). Skips the test off linux.
func countMappings(t *testing.T, substr string) int {
	t.Helper()
	data, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skipf("no /proc/self/maps on this platform: %v", err)
	}
	n := 0
	for _, line := range strings.Split(string(data), "\n") {
		if strings.Contains(line, substr) {
			n++
		}
	}
	return n
}

// mmapBundleDir saves an independent copy of the serve fixture's
// deployment for mmap-lifecycle tests (each test gets its own dir so
// map counts cannot cross-talk).
func mmapBundleDir(t *testing.T) string {
	t.Helper()
	built, _, _ := fixture(t)
	dir := t.TempDir() + "/bundle"
	if err := built.SaveBundle(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

func mmapLoader(dir string) func() (*core.Result, error) {
	return func() (*core.Result, error) {
		return core.LoadBundleOpts(dir, core.LoadOptions{MMap: true})
	}
}

// mmapIndexDir saves an ANN index over the serve fixture's embedding
// to a directory of its own.
func mmapIndexDir(t *testing.T) string {
	t.Helper()
	built, _, _ := fixture(t)
	ix, err := ann.Build(built.Embedding, ann.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir() + "/index"
	if err := ix.Save(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// mmapIndexLoader maps the index at dir on every call, the way levad
// -mmap -index does.
func mmapIndexLoader(dir string) func() (*ann.Index, error) {
	return func() (*ann.Index, error) {
		return ann.LoadOpts(dir, ann.LoadOptions{MMap: true})
	}
}

// TestReloadUnmapsRetiredGenerations is the mmap-leak regression: before
// the fix, every hot reload of an -mmap server leaked the retired
// generation's mapping for the life of the process (durable.MapFile had
// no release path at all). 50 reloads must leave the process with
// exactly one mapping of the bundle, and shutdown must drop that too.
func TestReloadUnmapsRetiredGenerations(t *testing.T) {
	if !durable.MapSupported {
		t.Skip("mmap unsupported on this platform")
	}
	dir := mmapBundleDir(t)
	load := mmapLoader(dir)
	first, err := load()
	if err != nil {
		t.Fatal(err)
	}
	if !first.Mapped() {
		t.Fatal("mmap load did not map the bundle")
	}
	srv := New(first, Config{Loader: load})
	if got := countMappings(t, dir); got != 1 {
		t.Fatalf("mappings before reloads = %d, want 1", got)
	}
	for i := 0; i < 50; i++ {
		if err := srv.Reload(); err != nil {
			t.Fatalf("reload %d: %v", i, err)
		}
	}
	if got := countMappings(t, dir); got != 1 {
		t.Errorf("mappings after 50 reloads = %d, want 1 (retired generations leaked)", got)
	}
	if gen := srv.curStore().gen; gen != 51 {
		t.Errorf("generation = %d, want 51", gen)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := countMappings(t, dir); got != 0 {
		t.Errorf("mappings after shutdown = %d, want 0", got)
	}
}

// TestReloadRejectedCandidateUnmapped: a candidate bundle that fails
// validation must not leak its mapping either — rejection paths unmap
// before returning.
func TestReloadRejectedCandidateUnmapped(t *testing.T) {
	if !durable.MapSupported {
		t.Skip("mmap unsupported on this platform")
	}
	_, loaded, _ := fixture(t)
	// An incompatible candidate: same schema, different dimension.
	spec := synth.Student(synth.StudentOptions{Students: 40, Seed: 11})
	wrong, err := core.BuildEmbedding(spec.DB, core.Config{Dim: 4, Seed: 11, Method: embed.MethodMF})
	if err != nil {
		t.Fatal(err)
	}
	altDir := t.TempDir() + "/wrong"
	if err := wrong.SaveBundle(altDir); err != nil {
		t.Fatal(err)
	}
	srv := New(loaded, Config{Loader: mmapLoader(altDir)})
	for i := 0; i < 3; i++ {
		if err := srv.Reload(); err == nil || !strings.Contains(err.Error(), "dim") {
			t.Fatalf("reload %d: err = %v, want a dim rejection", i, err)
		}
	}
	if got := countMappings(t, altDir); got != 0 {
		t.Errorf("mappings of the rejected candidate = %d, want 0", got)
	}
}

// TestReloadUnmapsRetiredIndexes: with a mapping IndexLoader every
// generation owns its own index mapping and releases it on retirement,
// so 50 reloads leave exactly one mapping each of bundle.bin and
// index.bin, and shutdown leaves none.
func TestReloadUnmapsRetiredIndexes(t *testing.T) {
	if !durable.MapSupported {
		t.Skip("mmap unsupported on this platform")
	}
	dir, indexDir := mmapBundleDir(t), mmapIndexDir(t)
	load, loadIndex := mmapLoader(dir), mmapIndexLoader(indexDir)
	first, err := load()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := loadIndex()
	if err != nil {
		t.Fatal(err)
	}
	if !ix.Mapped() {
		t.Fatal("mmap load did not map the index")
	}
	srv := New(first, Config{Index: ix, Loader: load, IndexLoader: loadIndex})
	for i := 0; i < 50; i++ {
		if err := srv.Reload(); err != nil {
			t.Fatalf("reload %d: %v", i, err)
		}
	}
	if b, x := countMappings(t, dir), countMappings(t, indexDir); b != 1 || x != 1 {
		t.Errorf("after 50 reloads: %d bundle and %d index mappings, want 1 and 1", b, x)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if b, x := countMappings(t, dir), countMappings(t, indexDir); b != 0 || x != 0 {
		t.Errorf("after shutdown: %d bundle and %d index mappings, want 0 and 0", b, x)
	}
}

// TestReloadRejectedIndexUnmapped: a reload rejected for a foreign
// index (built over other entities) or for a corrupt index.bin leaves
// the mapping counts where they were — the candidate bundle and the
// candidate index are both released.
func TestReloadRejectedIndexUnmapped(t *testing.T) {
	if !durable.MapSupported {
		t.Skip("mmap unsupported on this platform")
	}
	dir, indexDir := mmapBundleDir(t), mmapIndexDir(t)
	load, loadIndex := mmapLoader(dir), mmapIndexLoader(indexDir)
	first, err := load()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := loadIndex()
	if err != nil {
		t.Fatal(err)
	}
	srv := New(first, Config{Index: ix, Loader: load, IndexLoader: loadIndex})
	defer srv.Shutdown(context.Background())

	// The foreign index has the fixture's dimension but none of its
	// names, so it maps and decodes cleanly and validateIndex refuses it.
	names := make([]string, 30)
	vecs := make([][]float64, 30)
	for i := range names {
		names[i] = fmt.Sprintf("foreign_%02d", i)
		vecs[i] = make([]float64, first.Embedding.Dim)
		vecs[i][i%first.Embedding.Dim] = 1
	}
	foreign, err := ann.BuildVectors(names, vecs, ann.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	foreignDir := t.TempDir() + "/foreign"
	if err := foreign.Save(foreignDir); err != nil {
		t.Fatal(err)
	}
	srv.cfg.IndexLoader = mmapIndexLoader(foreignDir)
	if err := srv.Reload(); err == nil || !strings.Contains(err.Error(), "not in the bundle's embedding") {
		t.Fatalf("reload with a foreign index: err = %v, want a rejection naming the missing entry", err)
	}
	if got := countMappings(t, foreignDir); got != 0 {
		t.Errorf("%d mappings of the rejected foreign index, want 0", got)
	}

	// A flipped byte fails the candidate's SHA-256 check.
	path := indexDir + "/" + ann.IndexFileName
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	srv.cfg.IndexLoader = loadIndex
	if err := srv.Reload(); err == nil || !strings.Contains(err.Error(), "SHA-256") {
		t.Fatalf("reload with a corrupt index.bin: err = %v, want a SHA-256 rejection", err)
	}
	if b, x := countMappings(t, dir), countMappings(t, indexDir); b != 1 || x != 1 {
		t.Errorf("after two rejected reloads: %d bundle and %d index mappings, want 1 and 1 (generation 1's)", b, x)
	}
	if gen := srv.curStore().gen; gen != 1 {
		t.Errorf("generation = %d after rejected reloads, want 1", gen)
	}
}

// TestReloadUnderMMapWhileQuerying hammers the swap path with live
// traffic: neighbor and featurize requests run nonstop while the bundle
// hot-reloads under mmap 20 times, with an IndexLoader that maps and
// quantizes a fresh index per generation, as levad -mmap -quantize
// does. Run under -race this doubles as the use-after-unmap detector
// for the ownership logic.
func TestReloadUnderMMapWhileQuerying(t *testing.T) {
	if !durable.MapSupported {
		t.Skip("mmap unsupported on this platform")
	}
	t.Run("mapping IndexLoader", func(t *testing.T) {
		dir, indexDir := mmapBundleDir(t), mmapIndexDir(t)
		loadIndex := func() (*ann.Index, error) {
			ix, err := mmapIndexLoader(indexDir)()
			if err != nil {
				return nil, err
			}
			if err := ix.Quantize(nil); err != nil {
				_ = ix.Unmap()
				return nil, err
			}
			return ix, nil
		}
		first, err := mmapLoader(dir)()
		if err != nil {
			t.Fatal(err)
		}
		ix, err := loadIndex()
		if err != nil {
			t.Fatal(err)
		}
		reloadWhileQuerying(t, first, Config{Index: ix, Loader: mmapLoader(dir), IndexLoader: loadIndex})
	})
}

func reloadWhileQuerying(t *testing.T, first *core.Result, cfg Config) {
	_, _, spec := fixture(t)
	srv := New(first, cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	// Clone the token: names of a mapped index view its mapping, which
	// the first reload releases.
	token := strings.Clone(cfg.Index.Names()[0])
	row := jsonRow(spec.DB.Table(spec.BaseTable), 0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var resp *http.Response
				var err error
				if g%2 == 0 {
					resp, err = http.Get(fmt.Sprintf("%s/v1/neighbors?token=%s&k=3", ts.URL, token))
				} else {
					resp, err = http.Post(ts.URL+"/v1/featurize", "application/json",
						strings.NewReader(mustJSON(map[string]any{"table": spec.BaseTable, "rows": []any{row}})))
				}
				if err != nil {
					select {
					case errs <- err.Error():
					default:
					}
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					select {
					case errs <- fmt.Sprintf("status %d", resp.StatusCode):
					default:
					}
					return
				}
			}
		}(g)
	}
	for i := 0; i < 20; i++ {
		if err := srv.Reload(); err != nil {
			t.Fatalf("reload %d under load: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("query under reload failed: %s", e)
	}
}

// publishCorruptBundle republishes dir's bundle.bin, by rename, with
// one byte flipped, so it fails its SHA-256 check against the manifest.
func publishCorruptBundle(t *testing.T, dir string) {
	t.Helper()
	path := dir + "/bundle.bin"
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := durable.WriteFile(durable.OS(), path, data); err != nil {
		t.Fatal(err)
	}
}

// publishCorruptIndex republishes dir's index.bin, by rename, short of
// its last 8 bytes, with a manifest that records the short file: the
// SHA-256 check passes and Decode refuses it with ann.ErrCorrupt.
func publishCorruptIndex(t *testing.T, dir string) {
	t.Helper()
	path := dir + "/" + ann.IndexFileName
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := durable.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	data = data[:len(data)-8]
	m.Files = nil
	m.Add(ann.IndexFileName, data)
	if err := durable.WriteFile(durable.OS(), path, data); err != nil {
		t.Fatal(err)
	}
	if err := durable.WriteManifest(durable.OS(), dir, m); err != nil {
		t.Fatal(err)
	}
}

// TestReloadRejectsEitherFailedLoad: the candidate bundle and index
// load concurrently, so a reload can fail on either side or on both.
// Each way the reload is rejected with an error naming every failed
// side, generation 1 keeps serving the same bytes, and both files'
// mapping counts return to their pre-reload values: the side that did
// load is unmapped, including a mapped index whose bundle failed.
func TestReloadRejectsEitherFailedLoad(t *testing.T) {
	if !durable.MapSupported {
		t.Skip("mmap unsupported on this platform")
	}
	_, _, spec := fixture(t)
	featBody := mustJSON(map[string]any{"table": spec.BaseTable, "rows": []any{jsonRow(spec.DB.Table(spec.BaseTable), 0)}})
	for _, c := range []struct {
		name          string
		bundle, index bool
	}{
		{"index corrupt", false, true},
		{"bundle corrupt", true, false},
		{"both corrupt", true, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir, indexDir := mmapBundleDir(t), mmapIndexDir(t)
			load, loadIndex := mmapLoader(dir), mmapIndexLoader(indexDir)
			first, err := load()
			if err != nil {
				t.Fatal(err)
			}
			ix, err := loadIndex()
			if err != nil {
				t.Fatal(err)
			}
			// No caches, so a repeated request's body is its answer alone.
			srv := New(first, Config{Index: ix, Loader: load, IndexLoader: loadIndex, CacheSize: -1})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			defer srv.Shutdown(context.Background())
			neighborsURL := fmt.Sprintf("%s/v1/neighbors?token=%s&k=3", ts.URL, ix.Names()[0])
			answers := func() string {
				var b strings.Builder
				for _, req := range []func() (*http.Response, error){
					func() (*http.Response, error) { return http.Get(neighborsURL) },
					func() (*http.Response, error) {
						return http.Post(ts.URL+"/v1/featurize", "application/json", strings.NewReader(featBody))
					},
				} {
					resp, err := req()
					if err != nil {
						t.Fatal(err)
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("status %d: %s", resp.StatusCode, body)
					}
					b.Write(body)
				}
				return b.String()
			}
			before := answers()

			if c.bundle {
				publishCorruptBundle(t, dir)
			}
			if c.index {
				publishCorruptIndex(t, indexDir)
			}
			b0, x0 := countMappings(t, dir), countMappings(t, indexDir)
			err = srv.Reload()
			if err == nil {
				t.Fatal("reload accepted a corrupt generation")
			}
			if got := strings.Contains(err.Error(), "bundle.bin fails its SHA-256 check"); got != c.bundle {
				t.Errorf("error names the corrupt bundle.bin = %v, want %v: %v", got, c.bundle, err)
			}
			if got := errors.Is(err, ann.ErrCorrupt); got != c.index {
				t.Errorf("errors.Is(err, ann.ErrCorrupt) = %v, want %v: %v", got, c.index, err)
			}
			if b, x := countMappings(t, dir), countMappings(t, indexDir); b != b0 || x != x0 {
				t.Errorf("bundle mappings %d -> %d and index mappings %d -> %d across the rejected reload", b0, b, x0, x)
			}
			if gen := srv.curStore().gen; gen != 1 {
				t.Errorf("generation = %d after the rejected reload, want 1", gen)
			}
			if after := answers(); after != before {
				t.Errorf("answers changed across the rejected reload:\n%s\nvs\n%s", after, before)
			}
		})
	}
}

// TestLoadGenerationRunsBothLoadsAtOnce: each stub loader waits for the
// other to start, which only returns when the two run concurrently.
func TestLoadGenerationRunsBothLoadsAtOnce(t *testing.T) {
	_, loaded, _ := fixture(t)
	bundleStarted, indexStarted := make(chan struct{}), make(chan struct{})
	wait := func(ch chan struct{}, what string) error {
		select {
		case <-ch:
			return nil
		case <-time.After(10 * time.Second):
			return fmt.Errorf("%s load never started alongside", what)
		}
	}
	res, ix, err := LoadGeneration(
		func() (*core.Result, error) {
			close(bundleStarted)
			return loaded, wait(indexStarted, "index")
		},
		func() (*ann.Index, error) {
			close(indexStarted)
			if err := wait(bundleStarted, "bundle"); err != nil {
				return nil, err
			}
			return ann.Build(loaded.Embedding, ann.Options{Seed: 7})
		})
	if err != nil {
		t.Fatal(err)
	}
	if res != loaded || ix == nil || ix.Len() != loaded.Embedding.Len() {
		t.Errorf("LoadGeneration = %p, %v; want the loaded bundle and its index", res, ix)
	}
}
