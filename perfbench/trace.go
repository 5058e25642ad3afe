package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime/pprof"
	"sort"

	"repro/internal/core"
	"repro/internal/interconnect"
)

// layers are the packages reported as per-layer self time; CPU time in any
// other package still counts toward the profile total.
var layers = []string{"sim", "cashmere", "treadmarks", "msg", "core", "vm", "cache", "interconnect", "apps", "runtime"}

// traced measures the per-layer metrics. Its first pass runs one
// simulation at a time and fixes the counts every later pass, at full
// concurrency, must repeat: counts must not depend on how many simulations
// share the host. It then alternates a plain pass with a pass under the CPU
// profiler for the given seconds; the difference of their median wall
// times is the tracing overhead.
func (b *bench) traced(seconds float64) (map[string]metric, error) {
	pass, _ := runPass(b.specs, b.seed, 1, false)
	b.check(pass)

	var plainWall, tracedWall, allocMB, gcCycles []float64
	selfNS := map[string]int64{}
	specNS := map[string]int64{}
	var totalNS int64
	for w := newWindow(seconds); w.next(); {
		pass, st := runPass(b.specs, b.seed, b.workers, false)
		b.check(pass)
		plainWall = append(plainWall, st.wall)
		allocMB = append(allocMB, st.allocMB)
		gcCycles = append(gcCycles, float64(st.gcCycles))

		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return nil, fmt.Errorf("starting CPU profile: %w", err)
		}
		pass, st = runPass(b.specs, b.seed, b.workers, false)
		pprof.StopCPUProfile()
		b.check(pass)
		tracedWall = append(tracedWall, st.wall)

		samples, err := parseProfile(buf.Bytes())
		if err != nil {
			return nil, err
		}
		for layer, ns := range attribute(samples) {
			selfNS[layer] += ns
			totalNS += ns
		}
		for _, s := range samples {
			key := "unlabelled"
			if s.labels != nil {
				key = s.labels["app"] + "/" + s.labels["variant"] + "/" + s.labels["procs"]
			}
			specNS[key] += s.ns
		}
	}
	passes := float64(len(tracedWall))
	printShares("layer", selfNS, totalNS, passes)
	printShares("spec", specNS, totalNS, passes)

	var c counts
	for _, o := range b.baseline {
		if o.res != nil {
			c.add(o)
		}
	}
	m := c.metrics()
	for _, l := range layers {
		m[l+".self_s"] = metric{float64(selfNS[l]) / 1e9 / passes, "s"}
	}
	m["sim.ns_per_event"] = metric{0, "ns"}
	if ev := c.events(); ev > 0 {
		m["sim.ns_per_event"] = metric{float64(selfNS["sim"]) / passes / float64(ev), "ns"}
	}
	m["runtime.alloc_mb"] = metric{median(allocMB), "MB"}
	m["runtime.gc_cycles"] = metric{median(gcCycles), "count"}
	m["trace.overhead_s"] = metric{median(tracedWall) - median(plainWall), "s"}
	return m, nil
}

// printShares writes each key's CPU seconds per pass and share of the
// profile total to standard error, largest first.
func printShares(what string, ns map[string]int64, total int64, passes float64) {
	keys := make([]string, 0, len(ns))
	for k := range ns {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if ns[keys[i]] != ns[keys[j]] {
			return ns[keys[i]] > ns[keys[j]]
		}
		return keys[i] < keys[j]
	})
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "%s %-28s %8.3f s/pass %5.1f%%\n", what, k, float64(ns[k])/1e9/passes, 100*float64(ns[k])/float64(total))
	}
}

// counts are one pass's exact work counters, summed over its specs.
type counts struct {
	elided, handoffs, polls uint64
	total                   core.Stats
	protocol                map[string]int64 // Result.Counters
	traffic                 map[string]int64 // Result.Traffic, by class
}

func (c *counts) add(o outcome) {
	if c.protocol == nil {
		c.protocol, c.traffic = map[string]int64{}, map[string]int64{}
	}
	c.elided += o.eng.Elided
	c.handoffs += o.eng.Handoffs
	c.polls += o.eng.Polls
	c.total.Add(&o.res.Total)
	for k, v := range o.res.Counters {
		c.protocol[k] += v
	}
	for k, v := range o.res.Traffic {
		c.traffic[k] += v
	}
}

func (c *counts) events() uint64 { return c.elided + c.handoffs + c.polls }

// metrics names the counters by the layer that does the work.
func (c *counts) metrics() map[string]metric {
	n := func(v int64) metric { return metric{float64(v), "count"} }
	t := &c.total
	m := map[string]metric{
		"sim.handoffs":             n(int64(c.handoffs)),
		"sim.elided_yields":        n(int64(c.elided)),
		"sim.inline_polls":         n(int64(c.polls)),
		"sim.events":               n(int64(c.events())),
		"cashmere.page_transfers":  n(t.PageTransfers),
		"cashmere.write_notices":   n(t.WriteNotices),
		"cashmere.page_fetch_reqs": n(c.protocol["page_fetch_reqs"]),
		"cashmere.dir_updates":     n(c.protocol["dir_updates"]),
		"treadmarks.twins":         n(t.Twins),
		"treadmarks.diffs_created": n(t.DiffsCreated),
		"treadmarks.diffs_applied": n(t.DiffsApplied),
		"treadmarks.intervals":     n(c.protocol["intervals"]),
		"treadmarks.lock_forwards": n(c.protocol["lock_forwards"]),
		"treadmarks.diff_requests": n(c.protocol["diff_requests"]),
		"msg.messages":             n(t.Messages),
		"msg.data_bytes":           {float64(t.DataBytes), "bytes"},
		"core.read_faults":         n(t.ReadFaults),
		"core.write_faults":        n(t.WriteFaults),
		"core.lock_acquires":       n(t.LockAcquires),
		"core.barriers":            n(t.Barriers),
		"cache.hits":               n(int64(t.CacheHits)),
		"cache.misses":             n(int64(t.CacheMisses)),
		"cache.hit_ratio":          {0, "ratio"},
	}
	if acc := t.CacheHits + t.CacheMisses; acc > 0 {
		m["cache.hit_ratio"] = metric{float64(t.CacheHits) / float64(acc), "ratio"}
	}
	for tc := interconnect.TrafficClass(0); tc < interconnect.NumTrafficClasses; tc++ {
		m["interconnect.bytes."+tc.String()] = metric{float64(c.traffic[tc.String()]), "bytes"}
	}
	return m
}
