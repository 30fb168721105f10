package ann

import "repro/internal/fingerprint"

// Fingerprint hashes the fully-defaulted options, so an explicit
// default and an unset zero value key the same cache entry. The hashed
// JSON still carries "Metric":"cosine" where Options once had a metric
// field, so the options' part of every cache key is unchanged.
func (o Options) Fingerprint() string {
	o = o.withDefaults()
	return fingerprint.JSON("leva/ann-options/v1", struct {
		M, EfConstruction, EfSearch int
		Metric                      string
		Seed                        int64
	}{o.M, o.EfConstruction, o.EfSearch, "cosine", o.Seed})
}

// IndexFingerprint keys an index artifact by its inputs: the content
// fingerprint of the embedding it indexes (embed.Embedding.Fingerprint)
// and the build options. Deterministic builds make this an equivalence
// proof — equal fingerprints mean byte-equal index files — which is
// what lets the stage cache serve a previously built index. The domain
// carries the index format version (FormatVersion): a codec change
// invalidates every cached index, so entries written in another
// format are never looked up.
func IndexFingerprint(embeddingFP string, o Options) string {
	return fingerprint.Combine("leva/ann-index/v4", embeddingFP, o.Fingerprint())
}
