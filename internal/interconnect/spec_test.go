package interconnect

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/sim"
)

func TestParseKind(t *testing.T) {
	for in, want := range map[string]Kind{
		"": MemoryChannel, "mc": MemoryChannel, "memchan": MemoryChannel,
		"rdma": RDMA, "switched": Switched,
	} {
		got, err := ParseKind(in)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	if _, err := ParseKind("token-ring"); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestSpecNormalized(t *testing.T) {
	// Zero value and explicit MC kind normalize identically.
	if got := (Spec{}).Normalized(); got.Kind != MemoryChannel || got.RDMA != nil || got.Switched != nil {
		t.Errorf("zero spec normalized to %+v", got)
	}
	if a, b := (Spec{}).Normalized(), (Spec{Kind: MemoryChannel}).Normalized(); a != b {
		t.Errorf("zero and explicit MC specs normalize differently: %+v vs %+v", a, b)
	}
	// Selecting a kind materializes its preset and drops foreign params.
	rp := DefaultRDMA()
	n := Spec{Kind: RDMA, Switched: &SwitchedParams{}}.Normalized()
	if n.RDMA == nil || *n.RDMA != rp {
		t.Errorf("rdma normalization did not materialize the preset: %+v", n)
	}
	if n.Switched != nil {
		t.Error("normalization kept unselected switched params")
	}
	// Explicit defaults and nil params normalize to the same identity.
	a := Spec{Kind: RDMA}.String()
	b := Spec{Kind: RDMA, RDMA: &rp}.String()
	if a != b {
		t.Errorf("nil and explicit-default rdma keys differ: %q vs %q", a, b)
	}
}

func TestSpecStringStable(t *testing.T) {
	// The canonical key must be parameter-complete and free of pointer
	// addresses: two separately allocated equal specs render identically.
	p1, p2 := DefaultSwitched(), DefaultSwitched()
	a := Spec{Kind: Switched, Switched: &p1}.String()
	b := Spec{Kind: Switched, Switched: &p2}.String()
	if a != b {
		t.Errorf("equal specs render differently: %q vs %q", a, b)
	}
	if (Spec{}).String() != "memchan" {
		t.Errorf("MC spec renders %q", (Spec{}).String())
	}
	// A parameter change must change the key.
	p2.HopLatency++
	if c := (Spec{Kind: Switched, Switched: &p2}).String(); c == a {
		t.Error("parameter change did not change the canonical key")
	}
}

func TestSpecValidate(t *testing.T) {
	for _, s := range []Spec{{}, {Kind: RDMA}, {Kind: Switched}} {
		if err := s.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v", s, err)
		}
	}
	if (Spec{Kind: "ethernet"}).Validate() == nil {
		t.Error("unknown kind validated")
	}
	bad := DefaultRDMA()
	bad.Latency = -1
	if (Spec{Kind: RDMA, RDMA: &bad}).Validate() == nil {
		t.Error("negative rdma latency validated")
	}
	badSw := DefaultSwitched()
	badSw.SwitchRadix = 0
	if (Spec{Kind: Switched, Switched: &badSw}).Validate() == nil {
		t.Error("zero switch radix validated")
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	orig := Spec{Kind: RDMA}.Normalized()
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.String() != orig.String() {
		t.Errorf("round trip changed identity: %q -> %q", orig.String(), back.String())
	}
}

func TestClusterSpecValidate(t *testing.T) {
	good := ClusterSpec{Nodes: 2, ProcsPerNode: 2}
	if err := good.Validate(); err != nil {
		t.Errorf("good spec rejected: %v", err)
	}
	for _, cs := range []ClusterSpec{
		{Nodes: 0, ProcsPerNode: 1},
		{Nodes: 2, ProcsPerNode: 0},
		{Nodes: 2, ProcsPerNode: 1, MC: MCParams{Latency: -1}},
		{Nodes: 2, ProcsPerNode: 1, Net: Spec{Kind: "ethernet"}},
	} {
		if cs.Validate() == nil {
			t.Errorf("bad spec %+v validated", cs)
		}
	}
}

func TestClusterSpecBuildEachKind(t *testing.T) {
	built := map[Kind]string{MemoryChannel: "*interconnect.mcNet", RDMA: "*interconnect.rdmaNet", Switched: "*interconnect.switchNet"}
	for _, kind := range Kinds {
		cs := ClusterSpec{Nodes: 4, ProcsPerNode: 2, Net: Spec{Kind: kind}}
		eng, err := sim.NewEngine(cs.EngineConfig())
		if err != nil {
			t.Fatal(err)
		}
		net, err := cs.Build(eng)
		if err != nil {
			t.Fatalf("Build(%s): %v", kind, err)
		}
		if got := fmt.Sprintf("%T", net); got != built[kind] {
			t.Errorf("Build(%s) returned a %s, want %s", kind, got, built[kind])
		}
	}
}

func TestClusterSpecZeroMCDefaultsToFirstGeneration(t *testing.T) {
	cs := ClusterSpec{Nodes: 2, ProcsPerNode: 1}
	eng, err := sim.NewEngine(cs.EngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	net, err := cs.Build(eng)
	if err != nil {
		t.Fatal(err)
	}
	if got := net.(*mcNet).params; got != MCFirstGeneration() {
		t.Errorf("zero MC params built %+v, want the first-generation preset", got)
	}
}
