package runner

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/core"
)

// FuzzDiskCacheEntry writes arbitrary bytes where the disk cache keeps a
// key's entry and loads it: a corrupt entry must be a miss, never a panic
// and never a result the tables cannot render. A hit must be exactly the
// entry the bytes hold, for this key, schema and model, and its result must
// have at least one processor, as every run does (Table 3 divides by
// Procs). The seed corpus runs under plain go test; `go test -fuzz
// FuzzDiskCacheEntry` explores from it.
func FuzzDiskCacheEntry(f *testing.F) {
	const key = "SOR|csm_poll|2|1x2|small"
	entry := func(schema, model, key string, res *core.Result) []byte {
		data, err := json.Marshal(diskEntry{Schema: schema, Model: model, Key: key, Result: res})
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	res := &core.Result{
		Program: "SOR", Variant: "csm_poll", Procs: 2, Time: 12345,
		PerProc:  make([]core.Stats, 2),
		Traffic:  map[string]int64{"page": 8192},
		Counters: map[string]int64{"dir_updates": 3},
		Checks:   map[string]float64{"checksum": 1.5},
	}
	valid := entry(SchemaVersion, modelDigest, key, res)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(entry("dsmbench-results/v1", modelDigest, key, res))
	f.Add(entry(SchemaVersion, "0000", key, res))
	f.Add(entry(SchemaVersion, modelDigest, "SOR|csm_poll|4|1x4|small", res))
	f.Add(entry(SchemaVersion, modelDigest, key, nil))
	f.Add([]byte("not json"))
	// An entry for the right key whose result has no processors, the case
	// the fuzzer found: Table 3 divides by Procs, so it must be a miss.
	noProcs := *res
	noProcs.Procs = 0
	f.Add(entry(SchemaVersion, modelDigest, key, &noProcs))
	f.Add(entry(SchemaVersion, modelDigest, key, &core.Result{}))

	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(diskCachePath(dir, key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok := loadDiskResult(dir, key)
		if !ok {
			if got != nil {
				t.Fatalf("miss returned a result: %+v", got)
			}
			return
		}
		var e diskEntry
		if err := json.Unmarshal(data, &e); err != nil {
			t.Fatalf("hit on bytes that do not decode: %v", err)
		}
		if e.Schema != SchemaVersion || e.Model != modelDigest || e.Key != key || e.Result == nil {
			t.Fatalf("hit on an entry for schema %q model %q key %q", e.Schema, e.Model, e.Key)
		}
		if !reflect.DeepEqual(got, e.Result) {
			t.Fatalf("hit returned %+v, entry holds %+v", got, e.Result)
		}
		if got.Procs <= 0 {
			t.Fatalf("hit on a result with %d processors", got.Procs)
		}
	})
}
