package embed

import "repro/internal/fingerprint"

// Fingerprint domains. Bump a version suffix whenever the matching
// options struct gains a field that changes the produced embedding.
const (
	mfFPDomain    = "leva/embed-mf/v1"
	rwFPDomain    = "leva/embed-rw/v1"
	gloveFPDomain = "leva/embed-glove/v2"
)

// Fingerprint returns a content hash of the embedding itself — the
// dimensionality and every (name, vector) pair, by the exact bits of
// the stored float32 values.
// Downstream artifacts derived from the vectors (the ANN index) key
// their cache entries on it: two embeddings hash equal iff every
// derived artifact is guaranteed identical. Cost is one pass over the
// arena, negligible next to any build that produced it.
func (e *Embedding) Fingerprint() string {
	h := fingerprint.New("leva/embedding-content/v1")
	h.Int(int64(e.Dim))
	names := e.Names()
	h.Int(int64(len(names)))
	for i, n := range names {
		h.String(n)
		for _, v := range e.row(i) {
			h.Float(float64(v))
		}
	}
	return h.Sum()
}

// Fingerprint returns a canonical content hash of the MF options after
// defaulting. Workers is excluded: the factorization is bit-identical
// at every worker count, so parallelism cannot change the artifact.
func (o MFOptions) Fingerprint() string {
	o = o.withDefaults()
	o.Workers = 0
	return fingerprint.JSON(mfFPDomain, o)
}

// Fingerprint returns a canonical content hash of the RW options after
// defaulting. Unlike MF, Workers is included: SGNS training is Hogwild
// SGD, reproducible only at Workers=1, so embeddings trained at
// different worker counts are distinct artifacts and must not share a
// cache entry.
func (o RWOptions) Fingerprint() string {
	return fingerprint.JSON(rwFPDomain, o.withDefaults())
}

// Fingerprint returns a canonical content hash of the GloVe options.
// Workers is included for the same reason as RWOptions.Fingerprint.
func (o GloVeOptions) Fingerprint() string {
	if o.Dim <= 0 {
		o.Dim = 100
	}
	return fingerprint.JSON(gloveFPDomain, o)
}
