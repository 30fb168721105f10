package core

import (
	"repro/internal/ann"
	"repro/internal/embed"
)

// stageANN is the stage-cache namespace of ANN index artifacts.
const stageANN = "ann"

// ANNStage derives the HNSW index artifact from a built embedding,
// content-addressed like every other stage: the fingerprint covers the
// embedding's exact content and the build options, and index builds
// are byte-deterministic, so a cache hit is provably the same artifact
// a rebuild would produce. `leva embed -index` runs this stage after
// the pipeline to publish an index next to the bundle.
type ANNStage struct {
	// Embedding is the built embedding to index.
	Embedding *embed.Embedding
	// Opts are the HNSW build options (zero value = defaults).
	Opts ann.Options
	// Cache, when non-nil, serves previously built indexes and
	// publishes fresh builds best-effort (a failed cache write never
	// fails the build).
	Cache *Cache
}

// Fingerprint keys the stage's artifact by everything that determines
// it: the embedding content hash and the defaulted build options.
func (s *ANNStage) Fingerprint() string {
	return ann.IndexFingerprint(s.Embedding.Fingerprint(), s.Opts)
}

// Run returns the index and whether it was served from the cache. A
// corrupt or unreadable cache entry counts as a miss and is rebuilt
// over, matching the pipeline's other stages.
func (s *ANNStage) Run() (ix *ann.Index, cached bool, err error) {
	var fp string
	if s.Cache != nil {
		fp = s.Fingerprint()
		if files, ok := s.Cache.Load(stageANN, fp); ok {
			if ix, err := ann.Decode(files[ann.IndexFileName]); err == nil {
				return ix, true, nil
			}
		}
	}
	ix, err = ann.Build(s.Embedding, s.Opts)
	if err != nil {
		return nil, false, err
	}
	if s.Cache != nil {
		s.Cache.noteStore(s.Cache.Store(stageANN, fp,
			map[string][]byte{ann.IndexFileName: ix.Encode()}))
	}
	return ix, false, nil
}
