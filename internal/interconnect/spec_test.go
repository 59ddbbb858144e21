package interconnect

import (
	"fmt"
	"reflect"
	"regexp"
	"strings"
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

func TestSpecValidate(t *testing.T) {
	for _, s := range []Spec{{}, {Kind: MemoryChannel}, {Kind: RDMA}, {Kind: Switched}} {
		if err := s.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v", s, err)
		}
	}
	if err := (Spec{Kind: "ethernet"}).Validate(); err == nil || !strings.Contains(err.Error(), `"ethernet"`) {
		t.Errorf("unknown kind: Validate() = %v, want an error naming it", err)
	}
}

// TestPresetParamsValidate: the RDMA and switched presets are valid, and
// zeroing any one of their fields fails Validate with an error that shows
// the zero.
func TestPresetParamsValidate(t *testing.T) {
	for _, preset := range []interface{ Validate() error }{DefaultRDMA(), DefaultSwitched()} {
		if err := preset.Validate(); err != nil {
			t.Errorf("%T preset invalid: %v", preset, err)
		}
		typ := reflect.TypeOf(preset)
		for i := 0; i < typ.NumField(); i++ {
			bad := reflect.New(typ).Elem()
			bad.Set(reflect.ValueOf(preset))
			bad.Field(i).SetInt(0)
			name := typ.Field(i).Name
			show := `\b` + name + `:0\b`
			if name == "SwitchRadix" {
				show = `switch radix 0\b`
			}
			err := bad.Interface().(interface{ Validate() error }).Validate()
			if err == nil || !regexp.MustCompile(show).MatchString(err.Error()) {
				t.Errorf("%T with zero %s: Validate() = %v, want an error showing it", preset, name, err)
			}
		}
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
