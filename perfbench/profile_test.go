package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/variants"
)

// pb appends protobuf fields.
type pb []byte

func (b pb) varint(num int, v uint64) pb {
	return binary.AppendUvarint(binary.AppendUvarint(b, uint64(num)<<3), v)
}

func (b pb) bytes(num int, d []byte) pb {
	b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(num)<<3|2), uint64(len(d)))
	return append(b, d...)
}

func (b pb) packed(num int, vs ...uint64) pb {
	var d []byte
	for _, v := range vs {
		d = binary.AppendUvarint(d, v)
	}
	return b.bytes(num, d)
}

// handProfile encodes a CPU profile: funcs names the functions (ids from 1),
// locs lists each location's function ids innermost first (ids from 1), and
// each sample gives its location ids leaf first and its CPU nanoseconds.
func handProfile(t *testing.T, funcs []string, locs [][]uint64, samples []struct {
	locs []uint64
	ns   uint64
}) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds", "app", "SOR"}
	var p pb
	p = p.bytes(1, pb(nil).varint(1, 1).varint(2, 2))
	p = p.bytes(1, pb(nil).varint(1, 3).varint(2, 4))
	for i, s := range samples {
		var m pb
		if i%2 == 0 {
			m = m.packed(1, s.locs...)
		} else {
			for _, l := range s.locs {
				m = m.varint(1, l)
			}
		}
		m = m.packed(2, 1, s.ns)
		if i == 0 {
			m = m.bytes(3, pb(nil).varint(1, 5).varint(2, 6))
		}
		p = p.bytes(2, m)
	}
	for i, fns := range locs {
		m := pb(nil).varint(1, uint64(i+1))
		for _, fn := range fns {
			m = m.bytes(4, pb(nil).varint(1, fn).varint(2, 10))
		}
		p = p.bytes(4, m)
	}
	for i, name := range funcs {
		p = p.bytes(5, pb(nil).varint(1, uint64(i+1)).varint(2, uint64(len(strs))))
		strs = append(strs, name)
	}
	for _, s := range strs {
		p = p.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAttributionCountsInlinedFrames(t *testing.T) {
	funcs := []string{
		"repro/internal/cache.(*L1).Access", // 1
		"repro/internal/core.(*Proc).load",  // 2
		"repro/internal/apps/sor.New.func2", // 3
		"runtime.mallocgc",                  // 4
		"repro/internal/core.(*Proc).fault", // 5
		"runtime.gcBgMarkWorker",            // 6
		"repro/internal/sim.(*runQueue).pop",
		"repro/internal/sim.(*domain).handoff",
		"repro/internal/apps/tsp.solve",
		"repro/perfbench.runSpec",
	}
	locs := [][]uint64{
		{1, 2}, // 1: L1.Access inlined into core's load
		{3},    // 2
		{4},    // 3
		{5},    // 4
		{6},    // 5
		{7, 8}, // 6: run-queue pop inlined into handoff
		{9},    // 7
		{10},   // 8
	}
	samples := []struct {
		locs []uint64
		ns   uint64
	}{
		{[]uint64{1, 2}, 30e6},    // cache, though core's frame holds it
		{[]uint64{3, 4, 2}, 20e6}, // malloc under a core fault: core
		{[]uint64{5}, 10e6},       // no repository frame: runtime
		{[]uint64{6, 8}, 40e6},    // sim
		{[]uint64{7, 8}, 5e6},     // apps, sub-package folded in
		{[]uint64{8}, 1e6},        // only the benchmark's own frame: runtime
	}
	got, err := parseProfile(handProfile(t, funcs, locs, samples))
	if err != nil {
		t.Fatal(err)
	}
	if got[0].labels["app"] != "SOR" || got[1].labels != nil {
		t.Errorf("labels: got %v and %v", got[0].labels, got[1].labels)
	}
	by := attribute(got)
	want := map[string]int64{"cache": 30e6, "core": 20e6, "runtime": 11e6, "sim": 40e6, "apps": 5e6}
	if len(by) != len(want) {
		t.Errorf("layers %v, want %v", by, want)
	}
	var sum, total int64
	for layer, ns := range want {
		if by[layer] != ns {
			t.Errorf("%s: %d ns, want %d", layer, by[layer], ns)
		}
	}
	for _, ns := range by {
		sum += ns
	}
	for _, s := range samples {
		total += int64(s.ns)
	}
	if sum != total {
		t.Errorf("layers sum to %d ns, profile total %d", sum, total)
	}
}

// TestParseRuntimeProfile checks the decoder against a real runtime/pprof
// profile of a labelled simulation.
func TestParseRuntimeProfile(t *testing.T) {
	cfg, err := variants.Config("csm_poll", 2, 2, variants.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	pprof.Do(context.Background(), pprof.Labels("app", "TSP"), func(context.Context) {
		for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
			if _, _, err := run(cfg, tspSmall.build(1)); err != nil {
				t.Error(err)
			}
		}
	})
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, labelled, sum int64
	for _, s := range samples {
		total += s.ns
		if s.labels["app"] == "TSP" {
			labelled += s.ns
		}
	}
	by := attribute(samples)
	for _, ns := range by {
		sum += ns
	}
	if total == 0 || labelled == 0 || sum != total {
		t.Fatalf("total %d ns, labelled %d ns, layers sum %d ns (%v)", total, labelled, sum, by)
	}
	if by["sim"]+by["cashmere"]+by["core"] == 0 {
		t.Errorf("no time in sim, cashmere or core: %v", by)
	}
}
