package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRepositoryIsClean is the regression gate behind the whole suite: the
// real repository must produce zero diagnostics under every analyzer. A
// failure here means a change reintroduced a nondeterminism source, a
// map-order leak, an uncharged frame access, or an uncharged message.
func TestRepositoryIsClean(t *testing.T) {
	l, err := NewModuleLoader(".")
	if err != nil {
		t.Fatalf("locating module: %v", err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	byPath := map[string]bool{}
	for _, p := range pkgs {
		byPath[p.Path] = true
	}
	// Guard against the walker silently matching nothing: the measured core
	// must actually be on the list.
	for _, want := range []string{"repro/internal/sim", "repro/internal/core", "repro/internal/vm"} {
		if !byPath[want] {
			t.Fatalf("package %s not loaded; got %d packages", want, len(pkgs))
		}
	}
	diags, err := Run(pkgs, Analyzers())
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, d := range diags {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}

// TestDomainAnnotationsPresent pins the annotation surface the analyzers
// enforce against: if the env-switch marker in internal/sim were deleted, the
// exemption would have nothing to exempt and the SIM_NO_FASTPATH read would
// be a diagnostic — or, were the analyzer broken too, silently pass.
func TestDomainAnnotationsPresent(t *testing.T) {
	sim, err := os.ReadFile(filepath.Join("..", "sim", "sim.go"))
	if err != nil {
		t.Fatalf("reading internal/sim/sim.go: %v", err)
	}
	if n := strings.Count(string(sim), EnvSwitchMarker); n < 1 {
		t.Errorf("internal/sim/sim.go has %d %s markers, want at least 1 (SIM_NO_FASTPATH)", n, EnvSwitchMarker)
	}
}
