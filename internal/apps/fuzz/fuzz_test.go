package fuzz

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/variants"
)

// TestFuzzBothProtocols runs generated race-free programs with several seeds
// and cluster shapes under both polling protocol variants and checks every
// oracle value. The in-body sample checks panic on any stale read, so a
// passing run certifies the full read/write/merge paths.
func TestFuzzBothProtocols(t *testing.T) {
	shapes := []struct{ nodes, ppn int }{{2, 1}, {2, 2}, {4, 2}}
	for _, seed := range []int64{1, 2, 3, 4} {
		for _, shape := range shapes {
			for _, variant := range []string{"csm_poll", "tmk_mc_poll"} {
				name := fmt.Sprintf("seed%d/%dx%d/%s", seed, shape.nodes, shape.ppn, variant)
				t.Run(name, func(t *testing.T) {
					c := Default(seed)
					cfg, err := variants.Config(variant, shape.nodes, shape.ppn, variants.Options{})
					if err != nil {
						t.Fatal(err)
					}
					res, err := core.Run(cfg, New(c))
					if err != nil {
						t.Fatal(err)
					}
					nprocs := shape.nodes * shape.ppn
					wantArr, wantTok := ExpectedChecks(c, nprocs)
					if got := res.Checks["arraysum"]; got != wantArr {
						t.Errorf("arraysum = %v, want %v", got, wantArr)
					}
					if got := res.Checks["token"]; got != float64(wantTok) {
						t.Errorf("token = %v, want %v", got, wantTok)
					}
					if res.Checks["countersum"] == 0 {
						t.Error("counters never bumped")
					}
				})
			}
		}
	}
}

// TestFuzzInterruptVariants covers the interrupt-based messaging paths with
// one seed (they are slower in virtual time, not different in data flow).
func TestFuzzInterruptVariants(t *testing.T) {
	for _, variant := range []string{"csm_int", "csm_pp", "tmk_mc_int", "tmk_udp_int"} {
		t.Run(variant, func(t *testing.T) {
			c := Default(99)
			c.Rounds = 3
			cfg, err := variants.Config(variant, 2, 2, variants.Options{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Run(cfg, New(c))
			if err != nil {
				t.Fatal(err)
			}
			wantArr, _ := ExpectedChecks(c, 4)
			if got := res.Checks["arraysum"]; got != wantArr {
				t.Errorf("arraysum = %v, want %v", got, wantArr)
			}
		})
	}
}

// TestFuzzDeterminism: same seed, same shape, same variant => identical
// virtual time and statistics.
func TestFuzzDeterminism(t *testing.T) {
	run := func() *core.Result {
		cfg, err := variants.Config("tmk_mc_poll", 2, 2, variants.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Run(cfg, New(Default(7)))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Time != b.Time {
		t.Errorf("nondeterministic time: %d vs %d", a.Time, b.Time)
	}
	if a.Total.Messages != b.Total.Messages || a.Total.ReadFaults != b.Total.ReadFaults {
		t.Error("nondeterministic statistics")
	}
}

// TestCorpusOracles runs every corpus configuration under both polling
// variants and the sequential baseline and requires the complete reported
// check map — including the publish-flag, published-slot, table-sum and
// storm-sum checks from the newer idioms — to match the analytic oracle
// exactly.
func TestCorpusOracles(t *testing.T) {
	for _, c := range Corpus() {
		for _, variant := range []string{"csm_poll", "tmk_mc_poll", variants.Sequential} {
			t.Run(fmt.Sprintf("seed%d/%s", c.Seed, variant), func(t *testing.T) {
				nodes, ppn := 2, 2
				if variant == variants.Sequential {
					nodes, ppn = 1, 1
				}
				cfg, err := variants.Config(variant, nodes, ppn, variants.Options{})
				if err != nil {
					t.Fatal(err)
				}
				res, err := core.Run(cfg, New(c))
				if err != nil {
					t.Fatal(err)
				}
				want := AllExpectedChecks(c, nodes*ppn)
				if len(res.Checks) != len(want) {
					t.Fatalf("reported %d checks, oracle has %d", len(res.Checks), len(want))
				}
				for name, w := range want {
					if got := res.Checks[name]; got != w {
						t.Errorf("%s = %v, want %v", name, got, w)
					}
				}
			})
		}
	}
}

// TestCounterSumOracle cross-checks the replayed-draw counter oracle against
// an actual run (the older in-run test only asserted non-zero).
func TestCounterSumOracle(t *testing.T) {
	c := Default(42)
	cfg, err := variants.Config("csm_poll", 2, 2, variants.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(cfg, New(c))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Checks["countersum"], float64(ExpectedCounterSum(c, 4)); got != want {
		t.Errorf("countersum = %v, want %v", got, want)
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad config accepted")
		}
	}()
	New(Config{})
}
