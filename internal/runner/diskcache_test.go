package runner

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/variants"
)

func cacheFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		out = append(out, e.Name())
	}
	return out
}

// TestDiskCacheServesLaterProcesses simulates two dsmbench invocations
// sharing a -cache-dir: the first executes and populates the directory, the
// second (memo cleared, as a fresh process would be) is served entirely from
// disk. Infeasible specs are rediscovered, never cached.
func TestDiskCacheServesLaterProcesses(t *testing.T) {
	dir := t.TempDir()
	p := NewPlan()
	p.Add(smallSpec(variants.Sequential, 1), smallSpec("csm_poll", 2), smallSpec("csm_pp", 32))

	ResetCache()
	execBefore, hitsBefore := Executions(), DiskHits()
	rs1, err := Execute(p, Options{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := Executions() - execBefore; got != 2 {
		t.Fatalf("first run executed %d simulations, want 2", got)
	}
	if got := DiskHits() - hitsBefore; got != 0 {
		t.Fatalf("first run reported %d disk hits on an empty cache", got)
	}
	if files := cacheFiles(t, dir); len(files) != 2 {
		t.Fatalf("cache holds %d files, want 2 (infeasible specs must not be cached): %v", len(files), files)
	}

	ResetCache() // a new process has an empty memo but the same disk cache
	execBefore = Executions()
	rs2, err := Execute(p, Options{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := Executions() - execBefore; got != 0 {
		t.Fatalf("second run executed %d simulations, want 0 (disk cache)", got)
	}
	if got := DiskHits() - hitsBefore; got != 2 {
		t.Fatalf("second run reported %d disk hits, want 2", got)
	}

	for _, s := range p.Specs() {
		r1, err1 := rs1.Get(s)
		r2, err2 := rs2.Get(s)
		if errors.Is(err1, ErrInfeasible) {
			if !errors.Is(err2, ErrInfeasible) {
				t.Fatalf("%s: infeasible first, then %v", s.Key(), err2)
			}
			continue
		}
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v %v", s.Key(), err1, err2)
		}
		b1, _ := json.Marshal(r1)
		b2, _ := json.Marshal(r2)
		if !bytes.Equal(b1, b2) {
			t.Errorf("%s: disk-cached result differs from the executed one", s.Key())
		}
	}
}

// TestDiskCacheInvalidation proves the cache rejects entries from an
// incompatible schema version (the invalidation mechanism: bumping
// SchemaVersion orphans every file) and degrades corrupt files to misses.
func TestDiskCacheInvalidation(t *testing.T) {
	dir := t.TempDir()
	spec := smallSpec(variants.Sequential, 1)
	p := NewPlan()
	p.Add(spec)

	ResetCache()
	if _, err := Execute(p, Options{CacheDir: dir}); err != nil {
		t.Fatal(err)
	}
	path := diskCachePath(dir, spec.Normalize().Key())
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("cache entry not at the expected path: %v", err)
	}

	// Rewrite the entry as if a previous schema version had produced it.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var e diskEntry
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	e.Schema = "dsmbench-results/v0"
	stale, _ := json.Marshal(e)
	if err := os.WriteFile(path, stale, 0o644); err != nil {
		t.Fatal(err)
	}

	ResetCache()
	before := Executions()
	if _, err := Execute(p, Options{CacheDir: dir}); err != nil {
		t.Fatal(err)
	}
	if got := Executions() - before; got != 1 {
		t.Fatalf("stale-schema entry produced %d executions, want 1 (must be a miss)", got)
	}
	// The miss re-executes and overwrites the entry with the current schema.
	if res, ok := loadDiskResult(dir, spec.Normalize().Key()); !ok || res == nil {
		t.Fatal("re-execution did not refresh the stale entry")
	}

	// Corrupt bytes degrade to a miss rather than an error.
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	ResetCache()
	before = Executions()
	if _, err := Execute(p, Options{CacheDir: dir}); err != nil {
		t.Fatal(err)
	}
	if got := Executions() - before; got != 1 {
		t.Fatalf("corrupt entry produced %d executions, want 1", got)
	}

	// A key mismatch inside a well-formed file (digest collision, copied
	// file) is also a miss.
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	e.Key = "some|other|spec"
	wrongKey, _ := json.Marshal(e)
	if err := os.WriteFile(path, wrongKey, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := loadDiskResult(dir, spec.Normalize().Key()); ok {
		t.Fatal("entry with mismatched key served as a hit")
	}

	// An entry written by an earlier model revision — same schema, same key,
	// numbers the current code would not produce — is a miss wherever it
	// sits: at today's path, and at the path the unsalted digest gave it.
	e.Key = spec.Normalize().Key()
	e.Model = modelRevision - 1
	oldModel, _ := json.Marshal(e)
	unsalted := sha256.Sum256([]byte(SchemaVersion + "\n" + e.Key))
	for _, at := range []string{path, filepath.Join(dir, hex.EncodeToString(unsalted[:])+".json")} {
		if err := os.WriteFile(at, oldModel, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := loadDiskResult(dir, e.Key); ok {
		t.Fatal("entry written by an earlier model revision served as a hit")
	}
}

// TestDiskCacheAtomicWrites checks no temp droppings are left behind and the
// final file decodes cleanly.
func TestDiskCacheAtomicWrites(t *testing.T) {
	dir := t.TempDir()
	res := &core.Result{Program: "x", Variant: "y", Procs: 1, Time: 42}
	if err := storeDiskResult(dir, "k", res); err != nil {
		t.Fatal(err)
	}
	for _, f := range cacheFiles(t, dir) {
		if filepath.Ext(f) != ".json" {
			t.Errorf("leftover non-cache file %q", f)
		}
	}
	got, ok := loadDiskResult(dir, "k")
	if !ok || got.Time != 42 {
		t.Fatalf("round trip: ok=%v res=%+v", ok, got)
	}
}
