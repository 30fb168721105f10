package durable

import (
	"time"

	"repro/internal/obs"
)

// Latency of the two syscalls that decide publish durability and
// tail latency: fsync (of the data file and of the parent directory)
// and rename. Package-level because the durability protocol is —
// every WriteFile/PublishDir/RecoverDir in the process reports here, and
// RegisterMetrics may attach the instruments to any number of
// registries. Timings are taken around the FS interface, so
// fault-injecting test filesystems are measured the same way the real
// disk is.
var (
	fsyncSeconds = obs.NewHistogramVec("leva_durable_fsync_seconds",
		"Latency of fsync calls issued by the durability protocol, by target (file or dir).",
		obs.FsyncBuckets, "target")
	renameSeconds = obs.NewHistogram("leva_durable_rename_seconds",
		"Latency of rename calls issued by the durability protocol.",
		obs.FsyncBuckets)
	publishesTotal = obs.NewCounterVec("leva_durable_publishes_total",
		"Completed durable publishes, by kind (file = WriteFile, dir = PublishDir, recover = RecoverDir restoration).",
		"kind")
	errorsTotal = obs.NewCounter("leva_durable_errors_total",
		"Durable operations (WriteFile/PublishDir/RecoverDir) that returned an error.")
)

// RegisterMetrics attaches the durability-layer metrics to r.
func RegisterMetrics(r *obs.Registry) {
	r.Register(fsyncSeconds, renameSeconds, publishesTotal, errorsTotal)
}

// timedSync fsyncs f, recording the latency under target="file".
func timedSync(f File) error {
	start := time.Now()
	err := f.Sync()
	fsyncSeconds.With("file").ObserveDuration(time.Since(start))
	return err
}

// timedSyncDir fsyncs a directory via fsys, recording the latency
// under target="dir".
func timedSyncDir(fsys FS, path string) error {
	start := time.Now()
	err := fsys.SyncDir(path)
	fsyncSeconds.With("dir").ObserveDuration(time.Since(start))
	return err
}

// timedRename renames via fsys, recording the latency.
func timedRename(fsys FS, oldpath, newpath string) error {
	start := time.Now()
	err := fsys.Rename(oldpath, newpath)
	renameSeconds.ObserveDuration(time.Since(start))
	return err
}
