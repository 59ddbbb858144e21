// Package fuzz generates random data-race-free DSM programs for protocol
// validation. Each generated program interleaves six synchronization
// idioms — barrier-phased band writes, lock-protected shared counters,
// lock-chained token passing, flag-based producer/consumer publication, a
// read-mostly shared table with occasional locked updates, and a lock storm
// on one page — with deterministic pseudo-random parameters, then checks
// every read against a sequentially-consistent oracle computed from the same
// parameters. Running the same program under Cashmere, TreadMarks, and the
// sequential baseline must produce identical results; a protocol bug that
// loses a diff, misorders a merge, or breaks lock mutual exclusion shows up
// as a failed oracle check. internal/check's FuzzSchedule target
// additionally runs generated programs under perturbed schedules, with the
// Corpus configurations as its seed corpus.
package fuzz

import (
	"fmt"

	"repro/internal/apps/apputil"
	"repro/internal/core"
	"repro/internal/sim"
)

// Config parameterizes one generated program.
type Config struct {
	Seed   int64
	Rounds int // barrier-delimited phases
	Elems  int // shared array elements
	Locks  int // shared counters, each with its own lock
}

// Default returns a medium-size fuzz configuration.
func Default(seed int64) Config {
	return Config{Seed: seed, Rounds: 6, Elems: 4096, Locks: 4}
}

// Corpus returns the fixed set of configurations FuzzSchedule's seed corpus
// (internal/check) runs under perturbed schedules. Sizes are deliberately
// small: the seed corpus multiplies each by schedules x variants x cluster
// shapes, and schedule-dependent protocol bugs reproduce at small footprints
// (fewer pages means more contention per page, not less).
func Corpus() []Config {
	return []Config{
		{Seed: 101, Rounds: 2, Elems: 64, Locks: 1},
		{Seed: 202, Rounds: 3, Elems: 128, Locks: 2},
		{Seed: 303, Rounds: 4, Elems: 256, Locks: 3},
		{Seed: 404, Rounds: 3, Elems: 512, Locks: 2},
		{Seed: 505, Rounds: 3, Elems: 64, Locks: 1},
	}
}

// tableSize is the entry count of the read-mostly table (idiom 5).
const tableSize = 8

// Idiom 6, Water's phase-3 force merge: stormLocks locks guard disjoint
// stormSlice-element slices of one page, and every processor takes every
// one of them each round.
const (
	stormLocks = 4
	stormSlice = 16
)

// Valid reports whether New accepts the configuration: at least one round,
// lock and page-sized array.
func (c Config) Valid() bool {
	return c.Rounds >= 1 && c.Elems >= 64 && c.Locks >= 1
}

// New builds the generated program. The body's work assignment depends only
// on (Config, rank, nprocs), so the oracle below can predict every value.
func New(c Config) *core.Program {
	if !c.Valid() {
		panic(fmt.Sprintf("fuzz: bad config %+v", c))
	}
	l := core.NewLayout()
	arr := l.F64Pages(c.Elems)
	counters := l.I64Pages(c.Locks)
	token := l.I64Pages(1)
	pub := l.I64Pages(2) // [0] published slot, [1] publication flag
	table := l.I64Pages(tableSize)
	storm := l.I64Pages(stormSlice * stormLocks) // one page

	// Lock ids beyond the per-counter locks.
	tokenLock := c.Locks
	pubLock := c.Locks + 1
	tblLock := c.Locks + 2
	stormLock0 := c.Locks + 3

	return &core.Program{
		Name:        "fuzz",
		SharedBytes: l.Size(),
		Locks:       c.Locks + 3 + stormLocks, // counters + token + publish + table + storm
		Barriers:    2,
		Init: func(w *core.ImageWriter) {
			for i := 0; i < c.Elems; i++ {
				arr.Init(w, i, float64(i))
			}
			for i := 0; i < tableSize; i++ {
				table.Init(w, i, tableBase(i))
			}
		},
		Body: func(p *core.Proc) {
			np := p.NumProcs()
			me := p.Rank()
			rng := apputil.Rng(c.Seed + int64(me)*7919)
			for round := 0; round < c.Rounds; round++ {
				// Idiom 6: lock storm, first in the round so that every
				// processor leaves the previous barrier straight into it, as
				// in Water's merge. Each takes every storm lock once,
				// starting at its own rank so the lock chains interleave,
				// and adds rank+1 to every element of that lock's slice:
				// each element gains the same sum per round, whatever the
				// order.
				for dq := 0; dq < stormLocks; dq++ {
					q := (me + dq) % stormLocks
					p.Lock(stormLock0 + q)
					for m := q * stormSlice; m < (q+1)*stormSlice; m++ {
						storm.Set(p, m, storm.At(p, m)+int64(me+1))
					}
					p.Unlock(stormLock0 + q)
					p.Compute(5 * sim.Microsecond)
				}
				// Idiom 1: barrier-phased band writes. The permutation of
				// bands rotates per round; every element has exactly one
				// writer per round.
				owner := func(i int) int { return (i/64 + round) % np }
				for i := 0; i < c.Elems; i++ {
					if owner(i) != me {
						continue
					}
					p.PollPoint()
					arr.Set(p, i, expected(c, round, i))
				}
				// Idiom 2: lock-protected counters, bumped a pseudo-random
				// number of times (order across processors varies, sums are
				// deterministic).
				bumps := rng.Intn(3) + 1
				lock := rng.Intn(c.Locks)
				for b := 0; b < bumps; b++ {
					p.Lock(lock)
					counters.Set(p, lock, counters.At(p, lock)+int64(me+1))
					p.Unlock(lock)
					p.Compute(10 * sim.Microsecond)
				}
				_ = bumps
				// Idiom 4: flag-based publish after release. The round's
				// producer writes the slot with a plain store, then raises
				// the flag inside the critical section; consumers read the
				// flag under the lock and may touch the slot only after
				// observing it raised — the classic message-passing pattern,
				// DRF because the producer's release and the consumer's
				// acquire order slot accesses. A consumer that reads a stale
				// flag (publication not yet visible) must not read the slot.
				if producer := round % np; me == producer {
					pub.Set(p, 0, pubOracle(c, round))
					p.Lock(pubLock)
					pub.Set(p, 1, int64(round+1))
					p.Unlock(pubLock)
				} else {
					p.Lock(pubLock)
					f := pub.At(p, 1)
					p.Unlock(pubLock)
					if f < int64(round) || f > int64(round+1) {
						panic(fmt.Sprintf("fuzz: round %d rank %d: publish flag = %d, want %d or %d",
							round, me, f, round, round+1))
					}
					if f == int64(round+1) {
						if got, want := pub.At(p, 0), pubOracle(c, round); got != want {
							panic(fmt.Sprintf("fuzz: round %d rank %d: published slot = %d, want %d",
								round, me, got, want))
						}
					}
				}
				// Idiom 5: read-mostly shared table with occasional locked
				// updates. Every other round one rotating rank adds to one
				// entry; every processor reads one entry per round. All
				// accesses hold the table lock, so a reader in round r sees
				// the entry either before or after round r's update — both
				// values are computable from the config alone.
				if round%2 == 0 && me == (round/2)%np {
					p.Lock(tblLock)
					slot := round % tableSize
					table.Set(p, slot, table.At(p, slot)+int64(round+1))
					p.Unlock(tblLock)
				}
				e := (me + round) % tableSize
				p.Lock(tblLock)
				v := table.At(p, e)
				p.Unlock(tblLock)
				lo, hi := tableAt(c, round, e), tableAt(c, round+1, e)
				if v != lo && v != hi {
					panic(fmt.Sprintf("fuzz: round %d rank %d: table[%d] = %d, want %d or %d",
						round, me, e, v, lo, hi))
				}
				p.Barrier(0)
				// Validation: every processor reads every storm element and
				// checks a pseudo-random sample of the array against the
				// oracle.
				for m := 0; m < stormSlice*stormLocks; m++ {
					if got, want := storm.At(p, m), stormAt(round+1, np); got != want {
						panic(fmt.Sprintf("fuzz: round %d rank %d: storm[%d] = %d, want %d",
							round, me, m, got, want))
					}
				}
				for s := 0; s < 64; s++ {
					i := int(rng.Int63()) % c.Elems
					p.PollPoint()
					want := expected(c, round, i)
					if got := arr.At(p, i); got != want {
						panic(fmt.Sprintf("fuzz: round %d rank %d: arr[%d] = %v, want %v",
							round, me, i, got, want))
					}
				}
				// Idiom 3: token passing through the extra lock — each round
				// every processor adds its rank+round to the token.
				p.Lock(tokenLock)
				token.Set(p, 0, token.At(p, 0)+int64(me+round))
				p.Unlock(tokenLock)
				p.Barrier(1)
			}
			p.Finish()
			if me == 0 {
				// Post-Finish verification: bulk read, original sum order.
				sum := 0.0
				abuf := make([]float64, c.Elems)
				p.ReadF64Range(arr.Addr(0), abuf)
				for _, v := range abuf {
					sum += v
				}
				var csum int64
				for k := 0; k < c.Locks; k++ {
					csum += counters.At(p, k)
				}
				var tsum int64
				for i := 0; i < tableSize; i++ {
					tsum += table.At(p, i)
				}
				p.ReportCheck("arraysum", sum)
				p.ReportCheck("countersum", float64(csum))
				p.ReportCheck("token", float64(token.At(p, 0)))
				p.ReportCheck("pubflag", float64(pub.At(p, 1)))
				p.ReportCheck("pubslot", float64(pub.At(p, 0)))
				p.ReportCheck("tablesum", float64(tsum))
				var ssum int64
				for m := 0; m < stormSlice*stormLocks; m++ {
					ssum += storm.At(p, m)
				}
				p.ReportCheck("stormsum", float64(ssum))
			}
		},
	}
}

// expected is the oracle for element i after the round's write phase.
func expected(c Config, round, i int) float64 {
	return float64(i) + float64(round*1000) + float64(i%7)
}

// pubOracle is the slot value the round's producer publishes. Kept within
// float64's exact-integer range so the reported check round-trips.
func pubOracle(c Config, round int) int64 {
	return (c.Seed%1000003)*64 + int64(round)*37 + 11
}

// tableBase is entry i's initial value.
func tableBase(i int) int64 { return int64(3*i + 1) }

// tableAt is the oracle for table entry i once every update from rounds
// < round has been applied (updates happen on even rounds, one entry each).
func tableAt(c Config, round, i int) int64 {
	v := tableBase(i)
	for q := 0; q < round && q < c.Rounds; q++ {
		if q%2 == 0 && q%tableSize == i {
			v += int64(q + 1)
		}
	}
	return v
}

// stormAt is the oracle for every storm element once rounds rounds of
// idiom 6 have run on nprocs processors.
func stormAt(rounds, nprocs int) int64 { return int64(rounds * nprocs * (nprocs + 1) / 2) }

// ExpectedChecks returns the oracle values for the final reported checks on
// nprocs processors.
func ExpectedChecks(c Config, nprocs int) (arraySum float64, tokenSum int64) {
	for i := 0; i < c.Elems; i++ {
		arraySum += expected(c, c.Rounds-1, i)
	}
	for round := 0; round < c.Rounds; round++ {
		for me := 0; me < nprocs; me++ {
			tokenSum += int64(me + round)
		}
	}
	return arraySum, tokenSum
}

// ExpectedCounterSum replays each rank's pseudo-random draw sequence and
// returns the oracle for the "countersum" check: which counter each bump
// lands on varies by seed, but the total is rank-and-draw determined.
func ExpectedCounterSum(c Config, nprocs int) int64 {
	var sum int64
	for me := 0; me < nprocs; me++ {
		rng := apputil.Rng(c.Seed + int64(me)*7919)
		for round := 0; round < c.Rounds; round++ {
			bumps := rng.Intn(3) + 1
			_ = rng.Intn(c.Locks) // lock choice: irrelevant to the sum
			sum += int64(bumps) * int64(me+1)
			for s := 0; s < 64; s++ {
				_ = rng.Int63() // validation sample draws
			}
		}
	}
	return sum
}

// AllExpectedChecks returns the oracle for every check the program reports,
// keyed exactly as reported. Any run of the program — any protocol, any
// legal schedule — must reproduce this map bit for bit: the program is DRF,
// so release consistency guarantees sequentially-consistent results.
func AllExpectedChecks(c Config, nprocs int) map[string]float64 {
	arraySum, tokenSum := ExpectedChecks(c, nprocs)
	var tsum int64
	for i := 0; i < tableSize; i++ {
		tsum += tableAt(c, c.Rounds, i)
	}
	return map[string]float64{
		"arraysum":   arraySum,
		"countersum": float64(ExpectedCounterSum(c, nprocs)),
		"token":      float64(tokenSum),
		"pubflag":    float64(c.Rounds),
		"pubslot":    float64(pubOracle(c, c.Rounds-1)),
		"tablesum":   float64(tsum),
		"stormsum":   float64(stormSlice * stormLocks * stormAt(c.Rounds, nprocs)),
	}
}
