package treadmarks

import (
	"testing"

	"repro/internal/apps/em3d"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/interconnect"
	"repro/internal/msg"
)

// em3dField runs Em3d under cfg with the 21064A's L1 (timing decides whether
// the wait windows below are hit, so the cache model is part of the repro)
// and returns the program's "field" check.
func em3dField(t *testing.T, cfg core.Config, ec em3d.Config) float64 {
	t.Helper()
	l1 := cache.Alpha21064A
	cfg.Cache = &l1
	res, err := core.Run(cfg, em3d.New(ec))
	if err != nil {
		t.Fatalf("%s: %v", cfg.Variant, err)
	}
	return res.Checks["field"]
}

// requireEm3dAgrees runs ec on 4 nodes x 2 under the named TreadMarks variant
// and requires the one-processor NullProtocol answer, exactly: Em3d is
// barrier-only and data-race-free, so every schedule computes the same sums
// in the same order.
func requireEm3dAgrees(t *testing.T, variant string, ec em3d.Config) {
	t.Helper()
	seq := core.Config{
		Nodes: 1, ProcsPerNode: 1,
		MC: interconnect.MCFirstGeneration(), Costs: core.DefaultCosts(),
		Msg: msg.DefaultParams(msg.ModePoll), NewProtocol: core.NewNullProtocol, Variant: "sequential",
	}
	if got, want := em3dField(t, testConfig(4, 2, variant), ec), em3dField(t, seq, ec); got != want {
		t.Errorf("field = %v under %s, sequential oracle says %v", got, variant, want)
	}
}

// TestAppliedAdvancesAfterMerge pins defect A: validate used to raise
// applied[w] as each diff reply arrived but merged the diffs only after the
// last WaitReply, so a servePage nested in those waits shipped a frame
// without writer w's diff together with an applied vector that claimed it,
// and the requester never asked w. Rank 6 read stale eval values that way.
func TestAppliedAdvancesAfterMerge(t *testing.T) {
	requireEm3dAgrees(t, "tmk_mc_int",
		em3d.Config{Nodes: 2048, Degree: 4, RemoteFrac: 0.1, Iters: 1, Seed: 5})
}

// TestBarrierArrivalIncorporatedAtBarrier pins defect B: the barrier manager
// used to incorporate an arriver's intervals inside the request handler, i.e.
// nested in whatever rank 0 was blocked in. Inside validate's wait window the
// new notice raised known[w] on a page already ProtNone, and validate's
// closing SetProt mapped it readable with known[w] > applied[w] and nothing
// left to invalidate it: rank 0 kept all of rank 2's eval elements stale.
func TestBarrierArrivalIncorporatedAtBarrier(t *testing.T) {
	requireEm3dAgrees(t, "tmk_udp_int",
		em3d.Config{Nodes: 2048, Degree: 4, RemoteFrac: 0.1, Iters: 2, Seed: 5})
}

// TestIncorporateRefusesHandlerContext pins the rule behind defect B as a
// check: incorporate panics when a request handler is active on the
// processor, whatever the handler is.
func TestIncorporateRefusesHandlerContext(t *testing.T) {
	var tmk *Protocol
	cfg := testConfig(1, 2, "tmk_mc_poll")
	cfg.NewProtocol = func(rt *core.Runtime) core.Protocol {
		tmk = New(Config{})(rt).(*Protocol)
		return tmk
	}
	prog := &core.Program{
		Name: "guard", SharedBytes: 8192, Barriers: 1,
		Body: func(p *core.Proc) {
			st := tmk.state(p)
			st.serviceDepth++
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("rank %d: incorporate ran inside a handler", p.Rank())
					}
				}()
				tmk.incorporate(p, nil, nil)
			}()
			st.serviceDepth--
			p.Barrier(0) // depth is back to zero: the barrier's own incorporation runs
			p.Finish()
		},
	}
	if _, err := core.Run(cfg, prog); err != nil {
		t.Fatal(err)
	}
}
