package check

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/apps/fuzz"
	"repro/internal/sim"
)

// Repro kinds.
const (
	KindDifferential = "differential"
	KindLitmus       = "litmus"
)

// Repro is a self-contained, replayable failure specification. The shrinker
// minimizes one and cmd/dsmcheck serializes it to JSON; `dsmcheck -replay`
// deserializes and re-runs it. Every run it describes is deterministic, so a
// repro either always reproduces or never does.
type Repro struct {
	// Kind selects the checker: KindDifferential or KindLitmus.
	Kind string
	// Fuzz is the generated-program configuration (differential kind).
	Fuzz fuzz.Config
	// Litmus is the litmus test name (litmus kind); Perm its role rotation.
	Litmus string `json:",omitempty"`
	Perm   int    `json:",omitempty"`
	// Variant is the protocol variant.
	Variant string
	// Nodes x PPN is the cluster shape.
	Nodes, PPN int
	// Schedule is the perturbation; the zero value replays the canonical
	// order.
	Schedule sim.Schedule
	// InjectDropDiffRuns re-arms the injected TreadMarks bug (self-test).
	InjectDropDiffRuns int `json:",omitempty"`
	// Reason records why the run failed when the repro was captured.
	Reason string `json:",omitempty"`
}

func (r Repro) shape() Shape { return Shape{Nodes: r.Nodes, PPN: r.PPN} }

// String is a compact one-line description.
func (r Repro) String() string {
	switch r.Kind {
	case KindLitmus:
		return fmt.Sprintf("litmus %s on %s %s, schedule seed %d",
			r.Litmus, r.Variant, r.shape(), r.Schedule.Seed)
	default:
		return fmt.Sprintf("fuzz{seed %d, %d rounds, %d elems, %d locks} on %s %s, schedule seed %d",
			r.Fuzz.Seed, r.Fuzz.Rounds, r.Fuzz.Elems, r.Fuzz.Locks,
			r.Variant, r.shape(), r.Schedule.Seed)
	}
}

// WriteFile serializes the repro as indented JSON.
func (r Repro) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadRepro reads a repro written by WriteFile.
func LoadRepro(path string) (Repro, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Repro{}, err
	}
	var r Repro
	if err := json.Unmarshal(data, &r); err != nil {
		return Repro{}, fmt.Errorf("check: parse %s: %w", path, err)
	}
	return r, nil
}

// Replay runs the repro once. It returns the failure reason, "" if the run
// passes, and an error only for malformed repro specifications.
func Replay(r Repro) (string, error) {
	switch r.Kind {
	case KindDifferential:
		if !r.Fuzz.Valid() {
			return "", fmt.Errorf("check: bad fuzz config %+v", r.Fuzz)
		}
		return diffReason(r.Fuzz, r.Variant, r.shape(), r.Schedule, r.InjectDropDiffRuns), nil
	case KindLitmus:
		for _, test := range Suite() {
			if test.Name != r.Litmus {
				continue
			}
			regs, reason, err := runLitmusJob(litmusJob{test, r.Variant, r.shape(), r.Schedule, r.Perm})
			if err != nil || reason != "" {
				return reason, err
			}
			if test.Forbidden(regs) {
				return fmt.Sprintf("forbidden outcome %s", test.Format(regs)), nil
			}
			return "", nil
		}
		return "", fmt.Errorf("check: unknown litmus test %q", r.Litmus)
	default:
		return "", fmt.Errorf("check: unknown repro kind %q", r.Kind)
	}
}

// reseedWidth is how many schedule seeds the shrinker searches per shrinking
// candidate: the original seed first (the same program often fails under the
// same perturbation stream), then a small neighborhood, since a structurally
// smaller program needs a different ordering to hit the same protocol path.
const reseedWidth = 8

// Shrink minimizes a reproducing failure by greedily bisecting the program
// parameters and cluster shape, re-searching the schedule-seed neighborhood
// after each structural change. budget caps the total number of replays
// (<= 0 means a default of 400). It returns the minimized repro and the
// number of replays spent. Shrinking requires the input to reproduce.
func Shrink(r Repro, budget int) (Repro, int, error) {
	if budget <= 0 {
		budget = 400
	}
	spent := 0
	replay := func(c Repro) (string, bool) {
		if spent >= budget {
			return "", false
		}
		spent++
		reason, err := Replay(c)
		if err != nil {
			return "", false
		}
		return reason, reason != ""
	}
	reason, fails := replay(r)
	if !fails {
		return r, spent, fmt.Errorf("check: repro does not reproduce: %s", r)
	}
	r.Reason = reason

	// accept tries a structural candidate across the seed neighborhood.
	accept := func(c Repro) (Repro, bool) {
		seeds := []uint64{c.Schedule.Seed}
		if c.Schedule.Enabled() {
			for k := uint64(1); k < reseedWidth; k++ {
				seeds = append(seeds, c.Schedule.Seed+k)
			}
		}
		for _, seed := range seeds {
			cand := c
			cand.Schedule.Seed = seed
			if reason, bad := replay(cand); bad {
				cand.Reason = reason
				return cand, true
			}
		}
		return c, false
	}

	for spent < budget {
		improved := false
		for _, cand := range shrinkCandidates(r) {
			if got, ok := accept(cand); ok {
				r = got
				improved = true
				break
			}
		}
		if !improved {
			break
		}
	}
	return r, spent, nil
}

// shrinkCandidates proposes structurally smaller variants of the repro, most
// aggressive first. Every candidate stays within the checkers' legal
// parameter space (fuzz needs Rounds >= 1, Elems >= 64, Locks >= 1; a DSM
// run needs >= 2 processors).
func shrinkCandidates(r Repro) []Repro {
	var out []Repro
	add := func(mutate func(*Repro)) {
		c := r
		mutate(&c)
		if c != r {
			out = append(out, c)
		}
	}
	// Shape first: fewer processors shrinks every later replay.
	if r.shape().Procs() > 2 {
		add(func(c *Repro) { c.Nodes, c.PPN = 2, 1 })
	}
	if r.PPN > 1 {
		add(func(c *Repro) { c.PPN = 1 })
	}
	if r.Kind == KindLitmus {
		return out
	}
	if h := r.Fuzz.Rounds / 2; h >= 1 && h < r.Fuzz.Rounds {
		add(func(c *Repro) { c.Fuzz.Rounds = h })
	}
	if r.Fuzz.Rounds > 1 {
		add(func(c *Repro) { c.Fuzz.Rounds-- })
	}
	if h := r.Fuzz.Elems / 2; h >= 64 && h < r.Fuzz.Elems {
		add(func(c *Repro) { c.Fuzz.Elems = h })
	}
	if r.Fuzz.Locks > 1 {
		add(func(c *Repro) { c.Fuzz.Locks = r.Fuzz.Locks / 2 })
		add(func(c *Repro) { c.Fuzz.Locks-- })
	}
	return out
}
