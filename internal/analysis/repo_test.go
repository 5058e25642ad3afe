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
// map-order leak, an uncharged frame access, or an unannotated touch of
// domain-confined scheduling state.
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
// enforce against: if the markers in internal/sim were deleted, DomainConfined
// and the env-switch exemption would silently pass on everything.
func TestDomainAnnotationsPresent(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "sim", "sim.go"))
	if err != nil {
		t.Fatalf("reading internal/sim/sim.go: %v", err)
	}
	sim := string(src)
	if n := strings.Count(sim, ConfinedMarker); n < 5 {
		t.Errorf("internal/sim/sim.go has %d %s markers, want at least 5", n, ConfinedMarker)
	}
	if !strings.Contains(sim, DispatchMarker) {
		t.Errorf("internal/sim/sim.go has no %s markers", DispatchMarker)
	}
	if n := strings.Count(sim, EnvSwitchMarker); n != 1 {
		t.Errorf("internal/sim/sim.go has %d %s markers, want 1 (SIM_NO_FASTPATH)", n, EnvSwitchMarker)
	}
}
