package core

import (
	"fmt"
	"path/filepath"

	"repro/internal/durable"
	"repro/internal/obs"
)

// Cache is the content-addressed artifact store of the staged pipeline.
// Every entry is one stage output, keyed by a fingerprint of everything
// that determined it (input table contents, stage options, upstream
// fingerprints), laid out as
//
//	<root>/<stage>/<fingerprint>/
//	    MANIFEST.json     durable integrity record, written last
//	    <payload files>   stage-specific artifact
//
// Entries are immutable once published: a fingerprint fully determines
// its content, so there is never anything to update — only new entries
// to add. An entry is a sealed directory, the same protocol as the
// bundle and the ANN index: Store publishes it with
// durable.PublishDir, so an interrupted write can never produce a
// readable-but-wrong entry, and Load reads it with durable.ReadDir,
// returning the very bytes it verified. Anything torn, truncated,
// half-published or sealed at another cacheFormatVersion is a plain
// miss.
type Cache struct {
	root string
	fs   durable.FS
	// errs counts failed best-effort Store calls. It defaults to a
	// standalone counter owned by this Cache; a build carrying a
	// registry swaps in that registry's counter (observeInto), making
	// the registry the single source of store-error accounting — the
	// CLI report derives from the same counter a /metrics scrape reads.
	errs *obs.Counter
	// storeErrBase is errs' value when the current build attached, so
	// per-build reports are deltas, not Cache-lifetime totals.
	storeErrBase int
}

// NewCache opens (or lazily creates) a cache rooted at dir. The
// conventional root is a ".leva-cache" directory next to the data.
func NewCache(dir string) *Cache {
	return newCacheFS(dir, durable.OS())
}

// newCacheFS is NewCache over an injectable filesystem — the seam the
// fault-injection tests use to crash mid-publish.
func newCacheFS(dir string, fs durable.FS) *Cache {
	return &Cache{
		root: filepath.Clean(dir),
		fs:   fs,
		errs: obs.NewCounter(metricCacheStoreErrors,
			"Failed best-effort stage-cache writes (the build itself still succeeded)."),
	}
}

// observeInto points the cache's store-error accounting at the build's
// registry counter (when a registry is attached) and captures the baseline
// for this build's delta reporting.
func (c *Cache) observeInto(b *buildObs) {
	if b != nil {
		c.errs = b.storeErrs
	}
	c.storeErrBase = c.StoreErrors()
}

// Dir returns the cache root.
func (c *Cache) Dir() string { return c.root }

func (c *Cache) entryDir(stage, fp string) string {
	return filepath.Join(c.root, stage, fp)
}

// Load returns every payload file of the entry for (stage, fp), as
// durable.ReadDir read and verified them, or ok=false when the entry is
// absent, unsealed, fails integrity verification or was sealed at a
// formatVersion other than cacheFormatVersion. Any of those is a plain
// miss by design: the caller rebuilds and re-publishes over it.
func (c *Cache) Load(stage, fp string) (map[string][]byte, bool) {
	manifest, files, err := durable.ReadDir(c.entryDir(stage, fp))
	if err != nil || manifest.FormatVersion != cacheFormatVersion {
		return nil, false
	}
	return files, true
}

// Store publishes files as the sealed entry for (stage, fp) through
// durable.PublishDir: a failure leaves at worst an unsealed staging
// directory, which Load ignores and the next Store of the same
// fingerprint clears.
//
// Pipeline callers treat Store errors as non-fatal (a build must not
// fail because its cache is on a full disk), so errors are returned for
// reporting, not control flow.
func (c *Cache) Store(stage, fp string, files map[string][]byte) error {
	if err := durable.PublishDir(c.fs, c.entryDir(stage, fp), cacheFormatVersion, files); err != nil {
		return fmt.Errorf("core: cache store %s/%s: %w", stage, fp, err)
	}
	return nil
}

// noteStore records the outcome of a best-effort Store call so the
// pipeline can surface write failures without failing the build.
func (c *Cache) noteStore(err error) {
	if err != nil {
		c.errs.Inc()
	}
}

// StoreErrors returns the store-error counter's current value — the
// count for this Cache alone when standalone, or the registry-wide
// cumulative count once a build attached a registry (per-build deltas are
// what CacheStats reports).
func (c *Cache) StoreErrors() int { return int(c.errs.Value()) }

// cacheFormatVersion is recorded in every entry manifest. It versions
// the entry layout (not the per-stage payload encodings, which are
// versioned through their fingerprint domains).
const cacheFormatVersion = 1
