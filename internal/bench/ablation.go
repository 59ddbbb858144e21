package bench

import (
	"fmt"
	"io"

	"repro/internal/cache"
	"repro/internal/cashmere"
	"repro/internal/interconnect"
	"repro/internal/runner"
)

// Ablations exercises the design choices DESIGN.md calls out:
//
//	(a) Cashmere's exclusive-mode optimization (the replacement for the
//	    simulated protocol's "weak state", §2.1) on vs off;
//	(b) first-touch vs round-robin home assignment (§2.1);
//	(c) the second-generation Memory Channel projection (half the latency,
//	    10x the bandwidth, §1);
//	(d) first-level cache size: the 21064A's 16 KB vs a 21264-class 256 KB
//	    (the paper expects the larger cache to "largely eliminate" the
//	    write-doubling working-set problem, §4.3);
//	(e) doubling writes to a single dummy address (the paper's §4.3
//	    single-processor diagnostic for LU and Gauss).
//
// Each ablation derives its modified-model specs with a deterministic
// option transform, so AblationSpecs and AblationsRender agree on spec
// identity and the unmodified runs share the cache with Fig 5 / Table 3.

// withCashmere returns opts with the Cashmere ablation knobs replaced.
func (o Options) withCashmere(c cashmere.Config) Options {
	o.VariantOpts.Cashmere = c
	return o
}

// withSecondGenMC returns opts projected onto the second-generation Memory
// Channel.
func (o Options) withSecondGenMC() Options {
	mc2 := interconnect.MCSecondGeneration()
	o.VariantOpts.MC = &mc2
	return o
}

// withBigCache returns opts with a 21264-class 256 KB first-level cache.
func (o Options) withBigCache() Options {
	big := cache.Alpha21264
	o.VariantOpts.Cache = &big
	return o
}

// AblationSpecs enumerates every run the ablation suite needs.
func AblationSpecs(opts Options) []runner.RunSpec {
	opts = opts.defaults()
	var specs []runner.RunSpec
	// (a) exclusive mode on/off.
	for _, app := range []string{"SOR", "Water"} {
		specs = append(specs,
			spec(app, "csm_poll", 8, opts),
			spec(app, "csm_poll", 8, opts.withCashmere(cashmere.Config{DisableExclusive: true})))
	}
	// (b) home assignment policy.
	for _, app := range []string{"SOR", "Em3d"} {
		specs = append(specs,
			spec(app, "csm_poll", 8, opts),
			spec(app, "csm_poll", 8, opts.withCashmere(cashmere.Config{RoundRobinHomes: true})))
	}
	// (c) second-generation Memory Channel.
	for _, app := range []string{"SOR", "LU", "Em3d"} {
		for _, v := range []string{"csm_poll", "tmk_mc_poll"} {
			specs = append(specs,
				spec(app, v, 16, opts),
				spec(app, v, 16, opts.withSecondGenMC()))
		}
	}
	// (d) first-level cache size.
	for _, app := range []string{"LU", "Gauss"} {
		specs = append(specs,
			spec(app, "csm_poll", 1, opts),
			spec(app, "csm_poll", 1, opts.withBigCache()))
	}
	// (e) dummy doubling diagnostic.
	for _, app := range []string{"LU", "Gauss"} {
		specs = append(specs,
			spec(app, "csm_poll", 1, opts),
			spec(app, "csm_poll", 1, opts.withCashmere(cashmere.Config{DummyDoubling: true})),
			spec(app, "tmk_mc_poll", 1, opts))
	}
	return specs
}

// AblationsRender formats all five ablations from an executed result set.
func AblationsRender(w io.Writer, opts Options, rs *runner.ResultSet) error {
	opts = opts.defaults()
	if err := ablationExclusive(w, opts, rs); err != nil {
		return err
	}
	if err := ablationHomes(w, opts, rs); err != nil {
		return err
	}
	if err := ablationSecondGen(w, opts, rs); err != nil {
		return err
	}
	if err := ablationCache(w, opts, rs); err != nil {
		return err
	}
	return ablationDummyDoubling(w, opts, rs)
}

func ablationExclusive(w io.Writer, opts Options, rs *runner.ResultSet) error {
	header(w, "Ablation (a): Cashmere exclusive mode (SOR, Water at 8 processors, csm_poll)")
	fmt.Fprintf(w, "%-8s %14s %14s %16s %16s\n", "App", "on (s)", "off (s)", "wfaults on", "wfaults off")
	for _, app := range []string{"SOR", "Water"} {
		on, err := rs.Get(spec(app, "csm_poll", 8, opts))
		if err != nil {
			return err
		}
		off, err := rs.Get(spec(app, "csm_poll", 8, opts.withCashmere(cashmere.Config{DisableExclusive: true})))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8s %14.3f %14.3f %16d %16d\n", app,
			seconds(on.Time), seconds(off.Time), on.Total.WriteFaults, off.Total.WriteFaults)
	}
	return nil
}

func ablationHomes(w io.Writer, opts Options, rs *runner.ResultSet) error {
	header(w, "Ablation (b): home assignment policy (8 processors, csm_poll)")
	fmt.Fprintf(w, "%-8s %16s %18s %16s %18s\n", "App", "first-touch (s)", "round-robin (s)", "xfers ft", "xfers rr")
	for _, app := range []string{"SOR", "Em3d"} {
		ft, err := rs.Get(spec(app, "csm_poll", 8, opts))
		if err != nil {
			return err
		}
		rr, err := rs.Get(spec(app, "csm_poll", 8, opts.withCashmere(cashmere.Config{RoundRobinHomes: true})))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8s %16.3f %18.3f %16d %18d\n", app,
			seconds(ft.Time), seconds(rr.Time), ft.Total.PageTransfers, rr.Total.PageTransfers)
	}
	return nil
}

func ablationSecondGen(w io.Writer, opts Options, rs *runner.ResultSet) error {
	header(w, "Ablation (c): second-generation Memory Channel (16 processors; half latency, 10x bandwidth)")
	fmt.Fprintf(w, "%-8s %-14s %12s %12s %10s\n", "App", "Variant", "MC1 (s)", "MC2 (s)", "gain")
	for _, app := range []string{"SOR", "LU", "Em3d"} {
		for _, v := range []string{"csm_poll", "tmk_mc_poll"} {
			r1, err := rs.Get(spec(app, v, 16, opts))
			if err != nil {
				return err
			}
			r2, err := rs.Get(spec(app, v, 16, opts.withSecondGenMC()))
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-8s %-14s %12.3f %12.3f %9.2fx\n", app, v,
				seconds(r1.Time), seconds(r2.Time), float64(r1.Time)/float64(r2.Time))
		}
	}
	return nil
}

func ablationCache(w io.Writer, opts Options, rs *runner.ResultSet) error {
	header(w, "Ablation (d): first-level cache size (LU, Gauss on 1 processor, csm_poll)")
	fmt.Fprintf(w, "%-8s %14s %14s %10s\n", "App", "16KB (s)", "256KB (s)", "gain")
	for _, app := range []string{"LU", "Gauss"} {
		small, err := rs.Get(spec(app, "csm_poll", 1, opts))
		if err != nil {
			return err
		}
		large, err := rs.Get(spec(app, "csm_poll", 1, opts.withBigCache()))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8s %14.3f %14.3f %9.2fx\n", app,
			seconds(small.Time), seconds(large.Time), float64(small.Time)/float64(large.Time))
	}
	return nil
}

func ablationDummyDoubling(w io.Writer, opts Options, rs *runner.ResultSet) error {
	header(w, "Ablation (e): doubling to a dummy address (LU, Gauss on 1 processor, §4.3 diagnostic)")
	fmt.Fprintf(w, "%-8s %12s %12s %12s\n", "App", "csm (s)", "dummy (s)", "tmk (s)")
	for _, app := range []string{"LU", "Gauss"} {
		csm, err := rs.Get(spec(app, "csm_poll", 1, opts))
		if err != nil {
			return err
		}
		dummy, err := rs.Get(spec(app, "csm_poll", 1, opts.withCashmere(cashmere.Config{DummyDoubling: true})))
		if err != nil {
			return err
		}
		tmk, err := rs.Get(spec(app, "tmk_mc_poll", 1, opts))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8s %12.3f %12.3f %12.3f\n", app,
			seconds(csm.Time), seconds(dummy.Time), seconds(tmk.Time))
	}
	return nil
}
