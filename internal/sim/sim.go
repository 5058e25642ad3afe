// Package sim provides a deterministic discrete-event simulation engine for a
// cluster of SMP nodes.
//
// Each simulated processor is a goroutine with its own virtual clock, but
// exactly one processor goroutine executes at any moment: control (the
// baton) is handed back and forth between the engine's dispatch loop and the
// processor goroutines through unbuffered channels, so scheduling needs no
// locks and is bit-deterministic.
//
// The scheduling rule is the classic conservative one: the dispatcher always
// resumes the runnable processor with the minimum virtual clock (ties are
// FIFO in queue-push order, which is itself deterministic). Processors
// accumulate virtual time locally with Advance and must Yield before
// performing any globally visible action (acquiring a
// lock, sending a message, updating a directory entry, ...). This guarantees
// that when a processor performs such an action at virtual time t, no other
// processor can still perform an earlier conflicting action: all runnable
// processors have clocks >= t and blocked processors can only be woken at
// times chosen by already-ordered events.
//
// Three host-time fast paths keep the baton cheap without changing the
// order: a yield that would come straight back is elided, a yield or block
// passes the baton directly to the next processor's goroutine instead of
// through the dispatch loop, and a parked PollWait closure is evaluated
// inline by whichever goroutine dispatches it. All three are bit-exact, and
// SIM_NO_FASTPATH switches them off so tests can prove it.
//
// Timing model: virtual time is int64 nanoseconds (type Time). Real wall-clock
// time plays no role anywhere in the package.
package sim

import (
	"fmt"
	"os"
	"sort"
	"strings"
)

// NoFastPathEnv is the environment variable that, when set to any non-empty
// value, disables the simulator's host-time fast paths (yield elision here,
// translation caching in internal/core). The fast paths are bit-exact — they
// change no virtual-time result — so the toggle exists purely so tests can
// run both paths and assert identical output.
const NoFastPathEnv = "SIM_NO_FASTPATH"

// FastPathEnabled reports whether the fast paths are enabled for engines and
// runtimes created from now on (the environment is consulted at creation
// time, not per operation).
//
// dsmvet:env-switch — declared SIM_* switch site; the only sanctioned kind
// of environment read in measured packages.
func FastPathEnabled() bool { return os.Getenv(NoFastPathEnv) == "" }

// Time is virtual time in nanoseconds.
type Time = int64

// Common durations, in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

// Config describes the simulated cluster shape.
type Config struct {
	// Nodes is the number of SMP nodes in the cluster.
	Nodes int
	// ProcsPerNode is the number of processors on each node.
	ProcsPerNode int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("sim: config needs at least one node, got %d", c.Nodes)
	}
	if c.ProcsPerNode <= 0 {
		return fmt.Errorf("sim: config needs at least one processor per node, got %d", c.ProcsPerNode)
	}
	return nil
}

// TotalProcs returns the number of processors in the cluster.
func (c Config) TotalProcs() int { return c.Nodes * c.ProcsPerNode }

type procState uint8

const (
	stateNew     procState = iota
	stateQueued            // in the run queue, waiting to be resumed
	stateRunning           // currently holds the baton
	stateBlocked           // waiting for a Wake
	stateDone              // body function returned
)

func (s procState) String() string {
	switch s {
	case stateNew:
		return "new"
	case stateQueued:
		return "queued"
	case stateRunning:
		return "running"
	case stateBlocked:
		return "blocked"
	case stateDone:
		return "done"
	}
	return "invalid"
}

type reportKind uint8

const (
	reportYield reportKind = iota
	reportBlock
	reportDone
	reportPanic
)

type report struct {
	p    *Proc
	kind reportKind
	at   Time // resume time for reportYield
	err  error
}

// Engine owns the simulated cluster: its processors, the run queue, and the
// global event ordering. Create one with NewEngine, give its processors
// bodies with Go, then call Run.
//
// The scheduling state below the sched fields is touched only by the
// goroutine currently holding the baton — the dispatch loop in Run or one
// processor goroutine — and every transfer of control flows through an
// unbuffered channel, so no locks are needed. The race detector checks the
// discipline: CI runs `go test -race ./...` (DESIGN.md §7a).
type Engine struct {
	cfg     Config
	procs   []*Proc
	started bool

	fastYield bool // elide scheduler round-trips when provably inconsequential

	// sched is the committed schedule perturbation (zero value: canonical
	// order); jitterK is its cost-jitter fraction quantized to 1/1024ths so
	// the Advance hot path stays in integer arithmetic. See schedule.go.
	sched   Schedule
	jitterK int64

	runq      runQueue
	reports   chan report
	pushCount uint64 // run-queue push counter for FIFO tie-breaking
	msgSeq    uint64 // message sequence counter

	active int // processors with bodies not yet done

	// polling is set while a dispatcher evaluates a parked processor's
	// PollWait closure inline; yields and blocks panic during it, enforcing
	// the PollWait contract.
	polling bool

	elided   uint64
	handoffs uint64
	polls    uint64 // PollWait closures evaluated inline by a dispatcher
}

// NewEngine creates an engine for the given cluster shape and instantiates
// all of its processors. The processors have no bodies yet; attach them with
// Go before calling Run.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:       cfg,
		fastYield: FastPathEnabled(),
		reports:   make(chan report),
	}
	for n := 0; n < cfg.Nodes; n++ {
		for c := 0; c < cfg.ProcsPerNode; c++ {
			e.procs = append(e.procs, &Proc{
				ID:     len(e.procs),
				Node:   n,
				CPU:    c,
				eng:    e,
				resume: make(chan struct{}),
			})
		}
	}
	return e, nil
}

// Config returns the cluster shape the engine was created with.
func (e *Engine) Config() Config { return e.cfg }

// Procs returns all processors in id order. The slice must not be modified.
func (e *Engine) Procs() []*Proc { return e.procs }

// Proc returns the processor with the given id.
func (e *Engine) Proc(id int) *Proc { return e.procs[id] }

// NumProcs returns the number of processors.
func (e *Engine) NumProcs() int { return len(e.procs) }

// Go attaches a body function to a processor. The body starts executing, at
// virtual time 0, when Run is called. Go panics if called after Run or if the
// processor already has a body.
func (e *Engine) Go(p *Proc, body func(*Proc)) {
	if e.started {
		panic("sim: Go called after Run")
	}
	if p.body != nil {
		panic(fmt.Sprintf("sim: proc %d already has a body", p.ID))
	}
	p.body = body
}

// SetFastYield enables or disables yield elision on this engine, overriding
// the SIM_NO_FASTPATH environment default. For tests that want to pin one
// path explicitly; must be called before Run.
func (e *Engine) SetFastYield(on bool) { e.fastYield = on }

// ElidedYields returns the number of yields that were satisfied without a
// scheduler round-trip. Purely observational (tests and benchmarks); valid
// only after Run.
func (e *Engine) ElidedYields() uint64 { return e.elided }

// DirectHandoffs returns the number of baton passes that went directly from
// one processor goroutine to the next without waking the dispatcher.
// Purely observational (tests and benchmarks); valid only after Run.
func (e *Engine) DirectHandoffs() uint64 { return e.handoffs }

// InlinePolls returns the number of PollWait closures that dispatchers
// evaluated inline, without switching to the polling processor's goroutine.
// Purely observational (tests and benchmarks); valid only after Run.
func (e *Engine) InlinePolls() uint64 { return e.polls }

// Run executes the simulation until every processor with a body has finished,
// or until no progress is possible (deadlock). It returns an error describing
// a deadlock or a panic inside a processor body. On either failure the
// parked processor goroutines are unwound before Run returns, so an aborted
// simulation does not leak goroutines.
func (e *Engine) Run() error {
	if e.started {
		return fmt.Errorf("sim: engine already ran")
	}
	e.started = true
	e.applySchedule()

	for _, p := range e.procs {
		if p.body == nil {
			p.state = stateDone
			continue
		}
		e.active++
		e.enqueue(p, e.startTime(p))
		go p.run()
	}

	// dispatch returns on panic (error), or with the run queue drained —
	// success if every processor finished, deadlock otherwise.
	err := e.dispatch()
	if err == nil && e.active > 0 {
		err = e.deadlockError(e.active)
	}
	if err != nil {
		// The simulation result is already invalid; unwind the parked
		// goroutines so an engine-heavy test run does not accumulate them.
		e.killParked()
	}
	return err
}

// killParked unwinds every processor goroutine still parked on its resume
// channel. Each parked goroutine is woken with its killed flag set; it exits
// via runtime.Goexit without reporting back (nobody is listening). Only
// called from Run's failure paths, where no processor holds the baton, so
// every non-done processor with a body is guaranteed to be blocked
// on <-resume and the unbuffered sends cannot hang.
func (e *Engine) killParked() {
	for _, p := range e.procs {
		if p.body == nil || p.state == stateDone {
			continue
		}
		p.killed = true
		p.resume <- struct{}{}
	}
}

func (e *Engine) deadlockError(active int) error {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: deadlock with %d processors unfinished:", active)
	ids := make([]int, 0, len(e.procs))
	for _, p := range e.procs {
		if p.state != stateDone {
			ids = append(ids, p.ID)
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		p := e.procs[id]
		fmt.Fprintf(&b, "\n  proc %d (node %d) %s at t=%dns: %s", p.ID, p.Node, p.state, p.now, p.blockReason)
	}
	return fmt.Errorf("%s", b.String())
}

// MaxTime returns the largest virtual clock over all processors. After Run it
// is the simulated parallel execution time.
func (e *Engine) MaxTime() Time {
	var max Time
	for _, p := range e.procs {
		if p.now > max {
			max = p.now
		}
	}
	return max
}
