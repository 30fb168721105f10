package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/ann"
)

// Fixed `leva embed` settings of every workload: the paper's Fig. 6
// pipeline at dim 64 with matrix factorization.
const (
	embedDim    = "64"
	embedMethod = "mf"
	datasetName = "restbase"
	inputScale  = 0.3
	coldRuns    = 3
	warmRuns    = 7
	// setupRuns is how many times a run repeats its set-up (levagen, or
	// a levad start) to report setup_s as their median: one set-up
	// takes 10-40 ms, and single ones vary by a quarter.
	setupRuns = 15
)

// artifactMiB is the size of the deployable artifacts a `leva embed`
// wrote under dir: bundle.bin, plus index.bin when it built an index.
func artifactMiB(dir string) (float64, error) {
	st, err := os.Stat(filepath.Join(dir, "bundle", "bundle.bin"))
	if err != nil {
		return 0, err
	}
	size := st.Size()
	if st, err := os.Stat(filepath.Join(dir, "index", ann.IndexFileName)); err == nil {
		size += st.Size()
	} else if !os.IsNotExist(err) {
		return 0, err
	}
	return float64(size) / (1 << 20), nil
}

// embed runs `leva embed` on csv with the given stage cache, writing
// the embedding, bundle and (with index) the ANN index under dir.
func (e *env) embed(csv, cache, dir string, seed int64, index bool) (cmdResult, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return cmdResult{}, err
	}
	args := []string{"embed", "-data", csv, "-dim", embedDim, "-method", embedMethod,
		"-seed", strconv.FormatInt(seed, 10), "-cache", cache,
		"-out", filepath.Join(dir, "embedding.tsv"), "-bundle", filepath.Join(dir, "bundle")}
	if index {
		args = append(args, "-index", filepath.Join(dir, "index"))
	}
	return run(e.bins.leva, args...)
}

// coldEmbed is embed against an empty stage cache.
func (e *env) coldEmbed(csv, cache, dir string, seed int64, index bool) (cmdResult, error) {
	if err := os.RemoveAll(cache); err != nil {
		return cmdResult{}, err
	}
	return e.embed(csv, cache, dir, seed, index)
}

// runEmbed is the embed-restbase workload: three cold builds (empty
// stage cache), which must be byte-identical, then seven warm builds
// that must be served entirely from the stage cache.
func runEmbed(e *env, r *record) error {
	csv := filepath.Join(e.dir, "csv")
	var gens []float64
	for i := 0; i < setupRuns; i++ {
		out := csv
		if i > 0 {
			out = fmt.Sprintf("%s-%d", csv, i)
		}
		wall, err := e.generate(datasetName, e.seed, out)
		if err != nil {
			return err
		}
		gens = append(gens, wall.Seconds())
		if i > 0 {
			a, errA := hashDir(csv)
			b, errB := hashDir(out)
			if errA != nil || errB != nil {
				return fmt.Errorf("hash inputs: %v %v", errA, errB)
			}
			r.check("inputs_deterministic", fmt.Sprint(a) == fmt.Sprint(b))
		}
	}
	r.set("setup_s", median(gens), len(gens))

	cache := filepath.Join(e.dir, "cache")
	var cold, rss []float64
	for i := 0; i < coldRuns; i++ {
		dir := filepath.Join(e.dir, fmt.Sprintf("cold-%d", i))
		res, err := e.coldEmbed(csv, cache, dir, e.seed, true)
		r.Ops.Attempted++
		if err != nil {
			return err
		}
		cold = append(cold, res.wall.Seconds())
		rss = append(rss, float64(res.rssKiB)/1024)
		if i > 0 {
			for _, f := range []string{"bundle/bundle.bin", "index/index.bin"} {
				same, err := sameFiles(filepath.Join(e.dir, "cold-0", f), filepath.Join(dir, f))
				if err != nil {
					return err
				}
				if !same {
					r.Ops.Failed++
					r.note("cold run %d wrote a different %s", i, f)
				}
				r.check("cold_builds_identical", same)
			}
		}
	}

	var warm []float64
	for i := 0; i < warmRuns; i++ {
		res, err := e.embed(csv, cache, filepath.Join(e.dir, "warm"), e.seed, true)
		r.Ops.Attempted++
		if err != nil {
			return err
		}
		warm = append(warm, res.wall.Seconds())
		cached := strings.Contains(res.stdout, "textify=cached") &&
			strings.Contains(res.stdout, "graph=cached embed=cached") &&
			strings.Contains(res.stdout, ", cached in ")
		if !cached {
			r.Ops.Failed++
			r.note("warm run %d rebuilt a stage:\n%s", i, res.stdout)
		}
		r.check("warm_builds_cached", cached)
	}

	art, err := artifactMiB(filepath.Join(e.dir, "cold-0"))
	if err != nil {
		return err
	}
	r.set("artifact_mb", art, 1)
	r.set("peak_rss_mb", median(rss), len(rss))
	r.set("embed_cold_s", median(cold), len(cold))
	r.set("embed_warm_s", median(warm), len(warm))

	if !e.trace {
		return nil
	}
	l, err := newLayers(e, r, csv, cache, filepath.Join(e.dir, "cold-0", "bundle"), "", false)
	if err != nil {
		return err
	}
	// No traffic is served here, so the handler replay uses the
	// featurize-zipf mix over this workload's bundle.
	return l.measure(featurizePool(e.seed, l.base, l.cols), nil)
}
