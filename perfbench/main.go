// Command perfbench is the repository benchmark. It runs fixed, seeded sets
// of simulations (workloads), checks every output against a sequential
// reference run, checks that every exact count repeats, and prints one JSON
// line of metrics.
//
// It calls variants.Config and core.Run directly rather than going through
// internal/runner, whose memo and disk caches would turn repeat passes into
// cache hits.
//
//	perfbench --workload csm-locks --seed 42 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones: host wall time summed
// over the workload's simulations and CPU time per pass, both scaled by
// calibrations to a reference host speed, set-up time, peak RSS and
// simulated time. With --trace 1 they are the per-layer ones:
// CPU-profile self time per package, work counters and Go runtime
// allocation, plus the tracing overhead. README.md maps each layer metric
// to the workload and end-to-end metric it should move.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/apps/em3d"
	"repro/internal/apps/gauss"
	"repro/internal/apps/lu"
	"repro/internal/apps/sor"
	"repro/internal/apps/tsp"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/variants"
)

// app builds one application's program from the workload seed. Only TSP,
// Gauss and Em3d have random inputs; SOR and LU ignore the seed.
type app struct {
	name  string
	build func(seed int64) *core.Program
}

var (
	tspSmall    = app{"TSP", func(seed int64) *core.Program { c := tsp.Small(); c.Seed = seed; return tsp.New(c) }}
	gaussSmall  = app{"Gauss", func(seed int64) *core.Program { c := gauss.Small(); c.Seed = seed; return gauss.New(c) }}
	sorDefault  = app{"SOR", func(int64) *core.Program { return sor.New(sor.Default()) }}
	luDefault   = app{"LU", func(int64) *core.Program { return lu.New(lu.Default()) }}
	em3dDefault = app{"Em3d", func(seed int64) *core.Program {
		c := em3d.Default()
		c.Seed = seed
		return em3d.New(c)
	}}
)

// workload is the cross product of its apps, variants and processor counts.
type workload struct {
	apps     []app
	variants []string
	procs    []int
}

// The workloads stress different layers (shares are CPU-profile self time
// on a 2-vCPU host; README.md has the full table):
//   - csm-locks: lock-heavy apps on Cashmere, whose lock path spins (sim
//     and cashmere dominate; millions of inline polls per spec).
//   - tmk-locks: the same apps on TreadMarks, whose locks are forwarded
//     messages with intervals, twins and diffs (treadmarks dominates, no
//     spin waits, so a spin-wait change must not move it).
//   - data-parallel: lock-free barrier apps at the default size, where the
//     shared-access path (core, cache, vm) dominates on both protocols.
var workloads = map[string]workload{
	"csm-locks":     {[]app{tspSmall, gaussSmall}, []string{"csm_poll", "csm_int"}, []int{16, 32}},
	"tmk-locks":     {[]app{tspSmall, gaussSmall}, []string{"tmk_mc_poll", "tmk_udp_int"}, []int{16, 32}},
	"data-parallel": {[]app{sorDefault, luDefault, em3dDefault}, []string{"csm_poll", "tmk_mc_poll"}, []int{32}},
}

// spec is one simulation of a workload.
type spec struct {
	app     app
	variant string
	procs   int
}

func (s spec) String() string { return fmt.Sprintf("%s/%s/%d", s.app.name, s.variant, s.procs) }

// specs lists the workload's simulations, larger processor counts first.
// Those take longest; starting them first shortens the end of a pass where
// one worker waits for another, which makes pass times steadier.
func (w workload) specs() []spec {
	var out []spec
	for i := len(w.procs) - 1; i >= 0; i-- {
		for _, a := range w.apps {
			for _, v := range w.variants {
				out = append(out, spec{a, v, w.procs[i]})
			}
		}
	}
	return out
}

// engineCounts are the sim engine's work counters, which core.Result does
// not carry.
type engineCounts struct {
	Elided, Handoffs, Polls uint64
}

// run executes one simulation and also returns the engine's counters. It
// wraps cfg.NewProtocol only to record the *core.Runtime, and returns the
// very protocol the unwrapped constructor builds, so the run is unchanged.
func run(cfg core.Config, prog *core.Program) (*core.Result, engineCounts, error) {
	var rt *core.Runtime
	newProtocol := cfg.NewProtocol
	cfg.NewProtocol = func(r *core.Runtime) core.Protocol {
		rt = r
		return newProtocol(r)
	}
	res, err := core.Run(cfg, prog)
	if err != nil {
		return nil, engineCounts{}, err
	}
	e := rt.Engine()
	return res, engineCounts{e.ElidedYields(), e.DirectHandoffs(), e.InlinePolls()}, nil
}

// outcome is one spec's run in one pass.
type outcome struct {
	res *core.Result
	eng engineCounts
	// print fingerprints everything a run reports: the serialized Result
	// (simulated time, per-processor stats, traffic, counters, checks) and
	// the engine counters. It must repeat exactly.
	print [sha256.Size]byte
	err   error
	// wall is the run's host time and cal the calibration timed by the
	// same worker just before it (0 in uncalibrated passes), in seconds.
	wall, cal float64
}

func runSpec(s spec, seed int64) (o outcome) {
	defer func() {
		if r := recover(); r != nil {
			o = outcome{err: fmt.Errorf("%v: panic: %v", s, r)}
		}
	}()
	l, err := variants.LayoutFor(s.procs)
	if err != nil {
		return outcome{err: err}
	}
	cfg, err := variants.Config(s.variant, l.Nodes, l.PerNode, variants.Options{})
	if err != nil {
		return outcome{err: err}
	}
	res, eng, err := run(cfg, s.app.build(seed))
	if err != nil {
		return outcome{err: err}
	}
	js, err := json.Marshal(res)
	if err != nil {
		return outcome{err: fmt.Errorf("%v: encoding result: %w", s, err)}
	}
	js = append(js, fmt.Sprintf("|%d|%d|%d", eng.Elided, eng.Handoffs, eng.Polls)...)
	return outcome{res: res, eng: eng, print: sha256.Sum256(js)}
}

// forEach calls f(i) for i in [0,n) on at most workers goroutines and
// returns when every call has.
func forEach(n, workers int, f func(i int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// passStats are the host costs of one pass.
type passStats struct {
	wall, cpu float64 // seconds
	allocMB   float64
	gcCycles  uint32
}

// rusage reads the process's own resource usage, which fails only on a bad
// pointer.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return ru
}

func cpuSeconds() float64 {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// runPass runs every spec once, at most workers at a time. Each run carries
// pprof labels naming its spec, so a CPU profile can be split per spec.
// When calibrated, the worker times the calibration kernel just before each
// run.
func runPass(specs []spec, seed int64, workers int, calibrated bool) ([]outcome, passStats) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, t0 := cpuSeconds(), time.Now()
	out := make([]outcome, len(specs))
	forEach(len(specs), workers, func(i int) {
		s := specs[i]
		var cal float64
		if calibrated {
			cal = calibrate()
		}
		t := time.Now()
		labels := pprof.Labels("app", s.app.name, "variant", s.variant, "procs", strconv.Itoa(s.procs))
		pprof.Do(context.Background(), labels, func(context.Context) { out[i] = runSpec(s, seed) })
		out[i].wall, out[i].cal = time.Since(t).Seconds(), cal
	})
	st := passStats{wall: time.Since(t0).Seconds(), cpu: cpuSeconds() - cpu0}
	runtime.ReadMemStats(&m1)
	st.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	st.gcCycles = m1.NumGC - m0.NumGC
	return out, st
}

// window paces repeated work to a time budget: it always allows one
// round, then another only while the last round's duration still fits, so
// a run measures for at most its seconds (or one round, if longer).
type window struct {
	budget      float64
	start, last time.Time
	rounds      int
}

func newWindow(seconds float64) *window {
	now := time.Now()
	return &window{budget: seconds, start: now, last: now}
}

func (w *window) next() bool {
	now := time.Now()
	elapsed, round := now.Sub(w.start).Seconds(), now.Sub(w.last).Seconds()
	w.last = now
	w.rounds++
	return w.rounds == 1 || elapsed+round <= w.budget
}

// bench holds a run's oracle, its count baseline and its failure tally.
type bench struct {
	specs   []spec
	seed    int64
	workers int

	ref       map[string]map[string]float64 // app name -> sequential checks
	baseline  []outcome                     // first pass; every later pass must repeat it
	attempted int
	failed    int
}

// setup runs the sequential reference of every app once, at most workers
// at a time, and returns how long that took: the sum over apps of each
// one's time, scaled like a spec's by a calibration timed just before it.
// Every repetition must report the same checks.
func (b *bench) setup(apps []app) (float64, error) {
	checks := make([]map[string]float64, len(apps))
	errs := make([]error, len(apps))
	scaled := make([]float64, len(apps))
	forEach(len(apps), b.workers, func(i int) {
		cal := calibrate()
		t := time.Now()
		cfg, err := variants.Config(variants.Sequential, 1, 1, variants.Options{})
		if err == nil {
			var res *core.Result
			if res, _, err = run(cfg, apps[i].build(b.seed)); err == nil {
				checks[i] = res.Checks
			}
		}
		scaled[i] = time.Since(t).Seconds() / cal * referenceCalibration
		errs[i] = err
	})
	var d float64
	for _, x := range scaled {
		d += x
	}
	first := b.ref == nil
	if first {
		b.ref = map[string]map[string]float64{}
	}
	for i, a := range apps {
		if errs[i] != nil {
			return 0, fmt.Errorf("reference %s: %w", a.name, errs[i])
		}
		if first {
			b.ref[a.name] = checks[i]
		} else if !reflect.DeepEqual(b.ref[a.name], checks[i]) {
			return 0, fmt.Errorf("reference %s: checks %v, earlier %v", a.name, checks[i], b.ref[a.name])
		}
	}
	return d, nil
}

// check tallies a pass: every spec must succeed, report its reference's
// checks exactly, and repeat the baseline pass exactly.
func (b *bench) check(pass []outcome) {
	if b.baseline == nil {
		b.baseline = pass
	}
	for i, o := range pass {
		b.attempted++
		s := b.specs[i]
		switch {
		case o.err != nil:
			fmt.Fprintf(os.Stderr, "FAIL %v: %v\n", s, o.err)
		case !reflect.DeepEqual(o.res.Checks, b.ref[s.app.name]):
			fmt.Fprintf(os.Stderr, "FAIL %v: checks %v, sequential reference %v\n", s, o.res.Checks, b.ref[s.app.name])
		case b.baseline[i].err == nil && o.print != b.baseline[i].print:
			fmt.Fprintf(os.Stderr, "FAIL %v: counts differ from the first pass\n", s)
		default:
			continue
		}
		b.failed++
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func main() {
	name := flag.String("workload", "", "workload: csm-locks, tmk-locks or data-parallel")
	seed := flag.Int64("seed", 42, "seed for the applications' random inputs")
	seconds := flag.Float64("seconds", 30, "how long to measure, in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a CPU-profiled pass")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload csm-locks|tmk-locks|data-parallel, --trace 0|1, --seconds > 0\n")
		os.Exit(2)
	}
	b := &bench{specs: w.specs(), seed: *seed, workers: runtime.NumCPU()}
	metrics, err := b.measure(w.apps, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	rep := report{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "%-32s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	fmt.Fprintf(os.Stderr, "failed_frac %d/%d\n", b.failed, b.attempted)
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !rep.Correct {
		os.Exit(1)
	}
}

// minSetupSeconds is how long set-up is repeated, at least three times, so
// that the reported median is steady even where one set-up takes
// milliseconds.
const minSetupSeconds = 1.0

// measure sets up, then runs passes for the given seconds and returns the
// end-to-end metrics, or the per-layer ones when traced.
func (b *bench) measure(apps []app, seconds float64, traced bool) (map[string]metric, error) {
	var setups []float64
	for t0 := time.Now(); len(setups) < 3 || time.Since(t0).Seconds() < minSetupSeconds; {
		d, err := b.setup(apps)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
	}

	if traced {
		return b.traced(seconds)
	}

	// The first pass fixes the counts every later pass must repeat. A
	// spec's time is scaled by the calibration its worker timed just before
	// it; wall_s sums each spec's median scaled time. CPU time cannot be
	// split by spec, so cpu_s is wall_s times the CPU seconds the process
	// spent per second of simulation, the median over passes of the pass's
	// CPU time, less its calibrations, over the sum of its specs' times.
	ratios := make([][]float64, len(b.specs))
	var walls, utils, cals []float64
	for w := newWindow(seconds); w.next(); {
		pass, st := runPass(b.specs, b.seed, b.workers, true)
		b.check(pass)
		var specs, cal float64
		for i, o := range pass {
			ratios[i] = append(ratios[i], o.wall/o.cal)
			specs += o.wall
			cal += o.cal
			cals = append(cals, o.cal)
		}
		walls = append(walls, st.wall)
		utils = append(utils, (st.cpu-cal)/specs)
	}
	var wall float64
	for _, r := range ratios {
		wall += median(r) * referenceCalibration
	}
	fmt.Fprintf(os.Stderr, "passes %d, pass wall %.4v s, CPU per simulation second %.4v, calibration median %.4g s\n",
		len(walls), walls, utils, median(cals))
	var virtual float64
	for _, o := range b.baseline {
		if o.res != nil {
			virtual += float64(o.res.Time) / float64(sim.Second)
		}
	}
	return map[string]metric{
		"wall_s":           {wall, "s"},
		"cpu_s":            {wall * median(utils), "s"},
		"setup_s":          {median(setups), "s"},
		"peak_rss_mb":      {float64(rusage().Maxrss) / 1024, "MB"},
		"virtual_s":        {virtual, "s"},
		"virtual_per_wall": {virtual / wall, "s/s"},
	}, nil
}
