package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ann"
	"repro/internal/durable"
)

func TestANNStageCacheRoundTrip(t *testing.T) {
	res, _ := faultFixture(t)
	cache := NewCache(t.TempDir())

	stage := &ANNStage{Embedding: res.Embedding, Opts: ann.Options{Seed: 5}, Cache: cache}
	ix1, cached, err := stage.Run()
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("cold cache reported a hit")
	}
	ix2, cached, err := (&ANNStage{Embedding: res.Embedding, Opts: ann.Options{Seed: 5}, Cache: cache}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("warm cache reported a miss")
	}
	if !bytes.Equal(ix1.Encode(), ix2.Encode()) {
		t.Fatal("cached index differs from the built one")
	}

	// Different options are a different artifact.
	_, cached, err = (&ANNStage{Embedding: res.Embedding, Opts: ann.Options{Seed: 6}, Cache: cache}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("changed options hit the old cache entry")
	}
}

// TestANNStageCorruptEntryIsAMiss: a flipped byte in a published cache
// entry must be rebuilt over, never served.
func TestANNStageCorruptEntryIsAMiss(t *testing.T) {
	res, _ := faultFixture(t)
	dir := t.TempDir()
	cache := NewCache(dir)
	stage := &ANNStage{Embedding: res.Embedding, Opts: ann.Options{Seed: 5}, Cache: cache}
	want, _, err := stage.Run()
	if err != nil {
		t.Fatal(err)
	}
	entry := filepath.Join(dir, stageANN, stage.Fingerprint(), ann.IndexFileName)
	data, err := os.ReadFile(entry)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(entry, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, cached, err := stage.Run()
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("corrupt entry served as a hit")
	}
	if !bytes.Equal(got.Encode(), want.Encode()) {
		t.Fatal("rebuild after corruption produced a different index")
	}
	// The rebuild re-published a clean entry.
	if _, _, err := durable.ReadDir(filepath.Join(dir, stageANN, stage.Fingerprint())); err != nil {
		t.Fatalf("entry not re-published cleanly: %v", err)
	}
}

// TestANNStageVersion1EntryIsAMiss: a cache entry holding a version-1
// index.bin (from before the viewable format) is rebuilt over, never
// read. The fingerprint domain moved with the format, so a real v1
// entry sits under another key; this plants one under the current key
// to pin the decoder's side of the contract too.
func TestANNStageVersion1EntryIsAMiss(t *testing.T) {
	res, _ := faultFixture(t)
	v1, err := os.ReadFile(filepath.Join("..", "ann", "testdata", "index-v1", ann.IndexFileName))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cache := NewCache(dir)
	stage := &ANNStage{Embedding: res.Embedding, Opts: ann.Options{Seed: 5}, Cache: cache}
	if err := cache.Store(stageANN, stage.Fingerprint(), map[string][]byte{ann.IndexFileName: v1}); err != nil {
		t.Fatal(err)
	}
	got, cached, err := stage.Run()
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("version-1 entry served as a hit")
	}
	want, err := ann.Build(res.Embedding, ann.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Encode(), want.Encode()) {
		t.Fatal("rebuild over a version-1 entry produced a different index")
	}
	files, ok := cache.Load(stageANN, stage.Fingerprint())
	if !ok || !bytes.Equal(files[ann.IndexFileName], want.Encode()) {
		t.Fatal("the version-1 entry was not replaced by the rebuilt index")
	}
}

// TestANNStageWithoutCache builds directly.
func TestANNStageWithoutCache(t *testing.T) {
	res, _ := faultFixture(t)
	ix, cached, err := (&ANNStage{Embedding: res.Embedding}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if cached || ix == nil || ix.Len() != res.Embedding.Len() {
		t.Fatalf("cacheless run: cached=%v ix=%v", cached, ix)
	}
}
