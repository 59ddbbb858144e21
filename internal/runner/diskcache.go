package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"repro/internal/core"
)

// The persistent result cache (Options.CacheDir) stores one JSON file per
// successfully executed spec so that repeated dsmbench invocations — sweeps
// re-run after a rendering change, CI re-runs, ablation subsets of an
// already-executed full sweep — skip the simulation entirely. Entries embed
// the spec's canonical key, the results schema version and the model revision
// and are verified on load, so a stale or foreign file degrades to a cache
// miss, never a wrong result; bumping SchemaVersion or modelRevision
// invalidates every entry at once. Only successful results are stored: errors
// and infeasible layouts are cheap to rediscover and must not be pinned by a
// cache.

// modelRevision versions what a cached result *says*, as SchemaVersion
// versions its shape: the spec key names the simulation's inputs, not the
// code that ran it. Bump it in every change that deliberately moves a
// simulated number — that is, whenever internal/bench/testdata is re-pinned —
// so that a cache directory kept across the change misses instead of serving
// the old numbers. 1: TreadMarks' wait-window fix (23 small-sweep cells had
// computed wrong answers, and most TreadMarks times moved). 2: TreadMarks'
// metadata GC was deleted, and with it its three always-zero counters; an
// entry written before it would still carry them, so its serialized result
// would differ from a fresh run's.
const modelRevision = 2

// diskEntry is the on-disk format of one cached result.
type diskEntry struct {
	Schema string       `json:"schema"`
	Model  int          `json:"model"`
	Key    string       `json:"key"`
	Result *core.Result `json:"result"`
}

// diskHits counts results served from the on-disk cache process-wide.
var diskHits atomic.Int64

// DiskHits returns the number of results loaded from Options.CacheDir by
// this process so far (the disk-level analog of Executions).
func DiskHits() int64 { return diskHits.Load() }

// diskCachePath names the cache file for a spec key. Keys contain characters
// that are hostile to filesystems (slashes from app names would be, spaces
// and braces from the options struct are), so the name is a digest of the
// key together with the schema version and the model revision.
func diskCachePath(dir, key string) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s\nmodel %d\n%s", SchemaVersion, modelRevision, key)))
	return filepath.Join(dir, hex.EncodeToString(sum[:])+".json")
}

// loadDiskResult returns the cached result for a spec key, or ok=false on
// any miss: absent file, unreadable JSON, or a schema/model/key mismatch (a
// digest collision or a file written by an incompatible version).
func loadDiskResult(dir, key string) (*core.Result, bool) {
	data, err := os.ReadFile(diskCachePath(dir, key))
	if err != nil {
		return nil, false
	}
	var e diskEntry
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, false
	}
	if e.Schema != SchemaVersion || e.Model != modelRevision || e.Key != key || e.Result == nil {
		return nil, false
	}
	return e.Result, true
}

// storeDiskResult writes one result into the cache directory, creating it if
// needed. The write goes to a temp file first and is renamed into place, so
// concurrent processes sharing a cache directory see either the old entry or
// the complete new one, never a torn file.
func storeDiskResult(dir, key string, res *core.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(diskEntry{Schema: SchemaVersion, Model: modelRevision, Key: key, Result: res}, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".cache-*.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), diskCachePath(dir, key)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
