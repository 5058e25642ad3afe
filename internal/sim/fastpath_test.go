package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// irregularWorkload drives yields, quantum yields, message traffic, spin
// waits, and block/wake pairs across eight processors and returns the final
// clocks plus the engine for counter inspection. Used to compare the fast
// scheduling paths against the plain engine loop.
func irregularWorkload(t *testing.T, fast bool) ([]Time, *Engine) {
	t.Helper()
	e := mustEngine(t, 2, 4)
	e.SetFastYield(fast)
	n := e.NumProcs()
	for i, p := range e.Procs() {
		i := i
		e.Go(p, func(p *Proc) {
			for step := 0; step < 30; step++ {
				p.Advance(Time((i*37+step*101)%500 + 1))
				switch step % 4 {
				case 0:
					p.Yield()
				case 1:
					p.YieldIfQuantum(200)
				case 2:
					p.YieldUntil(p.Now() + Time(i*13))
				}
				target := e.Proc((i + step) % n)
				if target != p {
					target.Deliver(p.NewMsg(p.Now()+Time(100+i), step, nil))
					e.WakeAt(target, p.Now()+Time(50+i))
				}
				if step%7 == 3 {
					// Spin until a message is visible or a bounded number of
					// probes pass, advancing like a backoff loop. Parked, the
					// poll is evaluated inline by whichever goroutine
					// dispatches this processor.
					probes := 0
					p.PollWait(func() (bool, Time) {
						if _, ok := p.PeekInbox(); ok || probes > 25 {
							return true, 0
						}
						probes++
						p.Advance(150)
						return false, p.Now()
					})
				}
				for {
					if _, ok := p.TryRecv(); !ok {
						break
					}
				}
			}
			for p.InboxLen() > 0 {
				p.Recv("drain")
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	clocks := make([]Time, n)
	for i, p := range e.Procs() {
		clocks[i] = p.Now()
	}
	return clocks, e
}

// TestFastYieldEquivalence checks that yield elision and direct baton handoff
// and inline poll evaluation are bit-exact: the same irregular workload must
// land every processor on exactly the same final clock with the fast paths
// on and off.
func TestFastYieldEquivalence(t *testing.T) {
	slow, se := irregularWorkload(t, false)
	fast, fe := irregularWorkload(t, true)
	if se.ElidedYields() != 0 || se.DirectHandoffs() != 0 || se.InlinePolls() != 0 {
		t.Fatalf("slow path took fast paths: elided=%d handoffs=%d polls=%d",
			se.ElidedYields(), se.DirectHandoffs(), se.InlinePolls())
	}
	if fe.ElidedYields() == 0 && fe.DirectHandoffs() == 0 {
		t.Fatal("fast path never elided or handed off; workload not exercising it")
	}
	if fe.InlinePolls() == 0 {
		t.Fatal("fast path never evaluated a poll inline; workload not exercising it")
	}
	for i := range slow {
		if slow[i] != fast[i] {
			t.Fatalf("proc %d clock differs: slow=%d fast=%d", i, slow[i], fast[i])
		}
	}
}

// TestElisionCountsSoloYields checks that a lone processor's quantum yields
// are satisfied without scheduler round-trips: with an empty run queue the
// dispatch loop could only hand the baton straight back.
func TestElisionCountsSoloYields(t *testing.T) {
	e := mustEngine(t, 1, 1)
	e.SetFastYield(true)
	e.Go(e.Proc(0), func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Advance(10)
			p.Yield()
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.ElidedYields(); got != 100 {
		t.Fatalf("ElidedYields = %d, want 100", got)
	}
}

// TestHandoffBypassesEngine checks that a two-processor ping-pong passes the
// baton directly between the processor goroutines.
func TestHandoffBypassesEngine(t *testing.T) {
	e := mustEngine(t, 1, 2)
	e.SetFastYield(true)
	for _, p := range e.Procs() {
		e.Go(p, func(p *Proc) {
			for i := 0; i < 50; i++ {
				p.Advance(10)
				p.Yield()
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.DirectHandoffs() == 0 {
		t.Fatal("ping-pong workload produced no direct handoffs")
	}
}

// waitGoroutines polls until the process goroutine count drops to at most
// want or the deadline passes, then returns the final count.
func waitGoroutines(want int, deadline time.Duration) int {
	end := time.Now().Add(deadline)
	for {
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(end) {
			return n
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// TestNoGoroutineLeakOnDeadlock checks that an aborted Run unwinds every
// parked processor goroutine instead of leaking it, including one whose spin
// wait was evaluated inline by dispatchers before it gave up and blocked.
func TestNoGoroutineLeakOnDeadlock(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		e := mustEngine(t, 1, 5)
		e.SetFastYield(true)
		for _, p := range e.Procs()[:4] {
			e.Go(p, func(p *Proc) {
				p.Advance(Time(p.ID * 10))
				p.Yield()
				p.Block("leak-test: never woken")
			})
		}
		e.Go(e.Proc(4), func(p *Proc) {
			probes := 0
			p.PollWait(func() (bool, Time) {
				if _, ok := p.PeekInbox(); ok || probes > 10 {
					return true, 0
				}
				probes++
				p.Advance(5)
				return false, p.Now()
			})
			p.Block("leak-test: spin gave up")
		})
		err := e.Run()
		if err == nil || !strings.Contains(err.Error(), "deadlock") {
			t.Fatalf("Run = %v, want deadlock", err)
		}
		if e.InlinePolls() == 0 {
			t.Fatal("spin wait was never evaluated inline; not exercising the poll path")
		}
	}
	if n := waitGoroutines(base+2, 5*time.Second); n > base+2 {
		t.Fatalf("goroutines leaked after deadlocks: %d -> %d", base, n)
	}
}

// TestNoGoroutineLeakOnPanic checks the same for the panic abort path, with
// the surviving processors parked at various scheduling points, one of them
// inside a spin wait that never completes. Every other iteration the panic
// comes from a poll closure instead of a body: a dispatcher evaluating it
// inline must fail the run the same way.
func TestNoGoroutineLeakOnPanic(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		e := mustEngine(t, 1, 5)
		e.SetFastYield(true)
		if i%2 == 0 {
			e.Go(e.Proc(0), func(p *Proc) {
				p.Advance(500)
				p.Yield()
				panic("leak-test boom")
			})
		} else {
			e.Go(e.Proc(0), func(p *Proc) {
				probes := 0
				p.PollWait(func() (bool, Time) {
					if probes == 5 {
						panic("leak-test poll boom")
					}
					probes++
					p.Advance(100)
					return false, p.Now()
				})
			})
		}
		e.Go(e.Proc(1), func(p *Proc) {
			for {
				p.Advance(100)
				p.Yield()
			}
		})
		e.Go(e.Proc(2), func(p *Proc) { p.Block("leak-test: parked") })
		e.Go(e.Proc(3), func(p *Proc) { p.YieldUntil(Second) })
		e.Go(e.Proc(4), func(p *Proc) {
			p.PollWait(func() (bool, Time) {
				p.Advance(70)
				return false, p.Now()
			})
		})
		err := e.Run()
		want := "boom"
		if i%2 == 1 {
			want = "poll panicked: leak-test poll boom"
		}
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("Run = %v, want panic propagation (%q)", err, want)
		}
	}
	if n := waitGoroutines(base+2, 5*time.Second); n > base+2 {
		t.Fatalf("goroutines leaked after panics: %d -> %d", base, n)
	}
}

// TestNoGoroutineLeakSlowPath repeats the deadlock leak check with the fast
// paths disabled, covering the plain report/resume unwinding.
func TestNoGoroutineLeakSlowPath(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		e := mustEngine(t, 1, 4)
		e.SetFastYield(false)
		for _, p := range e.Procs() {
			e.Go(p, func(p *Proc) {
				p.Yield()
				p.Block("leak-test: never woken")
			})
		}
		if err := e.Run(); err == nil {
			t.Fatal("expected deadlock")
		}
	}
	if n := waitGoroutines(base+2, 5*time.Second); n > base+2 {
		t.Fatalf("goroutines leaked: %d -> %d", base, n)
	}
}

// BenchmarkYieldElided measures the elided yield path: a lone processor whose
// yields never need a scheduler round-trip.
func BenchmarkYieldElided(b *testing.B) {
	e, err := NewEngine(Config{Nodes: 1, ProcsPerNode: 1})
	if err != nil {
		b.Fatal(err)
	}
	e.SetFastYield(true)
	n := b.N
	e.Go(e.Proc(0), func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Advance(10)
			p.Yield()
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkYieldSlowPath measures the two-processor ping-pong with every fast
// path disabled: each yield is a full report/resume round-trip through the
// engine goroutine.
func BenchmarkYieldSlowPath(b *testing.B) {
	e, err := NewEngine(Config{Nodes: 1, ProcsPerNode: 2})
	if err != nil {
		b.Fatal(err)
	}
	e.SetFastYield(false)
	n := b.N
	for _, p := range e.Procs() {
		e.Go(p, func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Advance(10)
				p.Yield()
			}
		})
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
