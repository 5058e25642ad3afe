package apps

import (
	"testing"

	"repro/internal/apps/gauss"
	"repro/internal/apps/tsp"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/variants"
)

// engineWork is the sim engine's host-side work for one run: yields elided,
// baton passes handed directly between processor goroutines, and PollWait
// closures evaluated inline by a dispatcher.
type engineWork struct {
	Elided, Handoffs, Polls uint64
}

// runEngineWork runs prog through core.Run and reads the engine's work
// counters afterwards. It wraps cfg.NewProtocol only to capture the
// *core.Runtime and returns the very protocol the unwrapped constructor
// builds, so the run itself is unchanged.
func runEngineWork(t *testing.T, variant string, procs int, prog *core.Program) engineWork {
	t.Helper()
	l, err := variants.LayoutFor(procs)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := variants.Config(variant, l.Nodes, l.PerNode, variants.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var rt *core.Runtime
	newProtocol := cfg.NewProtocol
	cfg.NewProtocol = func(r *core.Runtime) core.Protocol {
		rt = r
		return newProtocol(r)
	}
	if _, err := core.Run(cfg, prog); err != nil {
		t.Fatal(err)
	}
	e := rt.Engine()
	return engineWork{e.ElidedYields(), e.DirectHandoffs(), e.InlinePolls()}
}

// TestEngineWorkCountersPinned pins the engine's work counters for the two
// lock-heavy apps on both polling protocols at 16 processors. The counters
// are a deterministic function of the dispatch sequence — every elision,
// handoff and inline poll happens at a fixed point of it — so unlike host
// time they are exact on any machine. A scheduler change that moves any
// count has moved the dispatch sequence and must justify the new value.
func TestEngineWorkCountersPinned(t *testing.T) {
	if !sim.FastPathEnabled() {
		t.Skipf("%s is set: the fast paths these counters measure are off", sim.NoFastPathEnv)
	}
	want := map[string]engineWork{
		"TSP/csm_poll":      {Elided: 468294, Handoffs: 1080547, Polls: 2705115},
		"TSP/tmk_mc_poll":   {Elided: 73555, Handoffs: 107805, Polls: 0},
		"Gauss/csm_poll":    {Elided: 298933, Handoffs: 740877, Polls: 1828732},
		"Gauss/tmk_mc_poll": {Elided: 28813, Handoffs: 31980, Polls: 0},
	}
	progs := []struct {
		name string
		mk   func() *core.Program
	}{
		{"TSP", func() *core.Program { return tsp.New(tsp.Small()) }},
		{"Gauss", func() *core.Program { return gauss.New(gauss.Small()) }},
	}
	for _, p := range progs {
		for _, v := range []string{"csm_poll", "tmk_mc_poll"} {
			key := p.name + "/" + v
			prog := p.mk()
			t.Run(key, func(t *testing.T) {
				t.Parallel() // independent simulations; the counts cannot depend on it
				if got := runEngineWork(t, v, 16, prog); got != want[key] {
					t.Errorf("engine work at 16 procs %+v, want %+v", got, want[key])
				}
			})
		}
	}
}
