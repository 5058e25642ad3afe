package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/apps/sor"
	"repro/internal/core"
	"repro/internal/variants"
)

// TestCaptureLeavesResultsUnchanged proves that recording the runtime to
// read the engine counters changes nothing a run reports: the captured
// result serializes to the same bytes as a plain core.Run, on every variant
// the workloads use, for a lock-based and a barrier-based app. Small sizes
// and shapes keep the test fast; the capture depends on neither.
func TestCaptureLeavesResultsUnchanged(t *testing.T) {
	apps := []app{tspSmall, {"SOR", func(int64) *core.Program { return sor.New(sor.Small()) }}}
	for _, v := range []string{"csm_poll", "csm_int", "tmk_mc_poll", "tmk_udp_int"} {
		cfg, err := variants.Config(v, 2, 2, variants.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range apps {
			plain, err := core.Run(cfg, a.build(7))
			if err != nil {
				t.Fatalf("%s/%s: %v", a.name, v, err)
			}
			captured, eng, err := run(cfg, a.build(7))
			if err != nil {
				t.Fatalf("%s/%s captured: %v", a.name, v, err)
			}
			want, _ := json.Marshal(plain)
			got, _ := json.Marshal(captured)
			if !bytes.Equal(got, want) {
				t.Errorf("%s/%s: captured result differs from plain core.Run", a.name, v)
			}
			if eng.Handoffs == 0 {
				t.Errorf("%s/%s: no engine handoffs captured", a.name, v)
			}
		}
	}
}
