package bench

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/interconnect"
	"repro/internal/runner"
	"repro/internal/variants"
)

// TestNetSweep16NodeSmoke runs the small interconnect sweep end to end (CI
// runs this under -race) and reads its 16-node cells: every backend
// completes, the rendered table names every interconnect, and the RDMA run
// actually took the one-sided page-read path instead of the message protocol.
func TestNetSweep16NodeSmoke(t *testing.T) {
	opts := Options{Size: apps.SizeSmall, Apps: []string{"SOR"}}
	specs := NetSweepSpecs(opts)
	if want := len(NetSweepVariants) * len(netSweepNodes) * len(interconnect.Kinds); len(specs) != want {
		t.Fatalf("sweep enumerates %d specs, want %d", len(specs), want)
	}
	var buf bytes.Buffer
	rs := run(t, &buf, opts, netSweep)
	for _, kind := range interconnect.Kinds {
		if !strings.Contains(buf.String(), string(kind)) {
			t.Errorf("rendered sweep does not mention %q:\n%s", kind, buf.String())
		}
	}

	times := map[interconnect.Kind]float64{}
	for _, kind := range interconnect.Kinds {
		res, err := rs.Get(netSweepSpec("SOR", "csm_poll", 16, kind, opts))
		if err != nil {
			t.Fatalf("csm_poll/16/%s: %v", kind, err)
		}
		if res.Time <= 0 {
			t.Fatalf("csm_poll/16/%s: non-positive time %d", kind, res.Time)
		}
		times[kind] = seconds(res.Time)
		switch kind {
		case interconnect.RDMA:
			if res.Counters["remote_page_reads"] == 0 {
				t.Error("rdma run never used one-sided page reads")
			}
			if res.Counters["page_fetch_reqs"] != 0 {
				t.Error("rdma run still sent page-fetch messages")
			}
		default:
			if res.Counters["remote_page_reads"] != 0 {
				t.Errorf("%s run reports remote page reads without the capability", kind)
			}
		}
	}
	// The fabrics have different latencies; identical times would mean the
	// spec never reached the model.
	if times[interconnect.RDMA] == times[interconnect.MemoryChannel] {
		t.Error("rdma and memory channel produced identical times")
	}
}

// TestNetSweepDefaultsToSOROnly: an empty Apps list must sweep SOR alone,
// not be expanded to all eight applications by Options.defaults() — the
// full-app sweep is 8x the cells and includes applications that take
// minutes at 64 nodes (this regressed once: NetSweepSpecs applied
// defaults() before choosing the app list).
func TestNetSweepDefaultsToSOROnly(t *testing.T) {
	specs := NetSweepSpecs(Options{Size: apps.SizeSmall})
	want := len(NetSweepVariants) * len(netSweepNodes) * len(interconnect.Kinds)
	if len(specs) != want {
		t.Fatalf("default sweep enumerates %d specs, want %d (SOR only)", len(specs), want)
	}
	for _, s := range specs {
		if s.App != "SOR" {
			t.Fatalf("default sweep includes %s; want SOR only", s.App)
		}
	}
}

// TestNetSweepMCSharesCache: the sweep's Memory Channel cells name the
// paper's interconnect explicitly, so they key — and cache — identically to a
// plain explicit-shape run of the same configuration.
func TestNetSweepMCSharesCache(t *testing.T) {
	opts := Options{Size: apps.SizeSmall}
	sweep := netSweepSpec("SOR", "csm_poll", 8, interconnect.MemoryChannel, opts)
	plain := runner.RunSpec{App: "SOR", Variant: "csm_poll", Nodes: 8, PPN: 1, Size: apps.SizeSmall,
		Opts: variants.Options{}}
	if sweep.Key() != plain.Key() {
		t.Errorf("sweep MC cell keys differently from a plain run:\n %s\n %s", sweep.Key(), plain.Key())
	}
}
