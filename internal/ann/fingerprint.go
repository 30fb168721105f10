package ann

import "repro/internal/fingerprint"

// Fingerprint hashes the fully-defaulted options, so an explicit
// default and an unset zero value key the same cache entry. The domain
// carries the index format version: a codec change invalidates every
// cached index.
func (o Options) Fingerprint() string {
	return fingerprint.JSON("leva/ann-options/v1", o.withDefaults())
}

// IndexFingerprint keys an index artifact by its inputs: the content
// fingerprint of the embedding it indexes (embed.Embedding.Fingerprint)
// and the build options. Deterministic builds make this an equivalence
// proof — equal fingerprints mean byte-equal index files — which is
// what lets the stage cache serve a previously built index.
func IndexFingerprint(embeddingFP string, o Options) string {
	return fingerprint.Combine("leva/ann-index/v2", embeddingFP, o.Fingerprint())
}
