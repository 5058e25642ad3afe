package interconnect

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func testCluster(t *testing.T, nodes, ppn int) (*sim.Engine, *mcNet) {
	t.Helper()
	cs := ClusterSpec{Nodes: nodes, ProcsPerNode: ppn}
	eng, err := sim.NewEngine(cs.EngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	net, err := cs.Build(eng)
	if err != nil {
		t.Fatal(err)
	}
	return eng, net.(*mcNet)
}

func TestParamsValidate(t *testing.T) {
	if err := MCFirstGeneration().Validate(); err != nil {
		t.Errorf("MCFirstGeneration invalid: %v", err)
	}
	if err := MCSecondGeneration().Validate(); err != nil {
		t.Errorf("MCSecondGeneration invalid: %v", err)
	}
	bad := MCFirstGeneration()
	bad.Latency = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero latency accepted")
	}
	bad = MCFirstGeneration()
	bad.LinkBandwidth = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative bandwidth accepted")
	}
}

func TestSecondGenerationScaling(t *testing.T) {
	d, s := MCFirstGeneration(), MCSecondGeneration()
	if s.Latency != d.Latency/2 {
		t.Errorf("latency = %d, want half of %d", s.Latency, d.Latency)
	}
	if s.LinkBandwidth != d.LinkBandwidth*10 {
		t.Errorf("link bw = %d, want 10x", s.LinkBandwidth)
	}
}

func TestTrafficClassString(t *testing.T) {
	for tc, want := range map[TrafficClass]string{
		TrafficDoubling: "doubling", TrafficPage: "page", TrafficMeta: "meta",
		TrafficSync: "sync", TrafficMessage: "message", NumTrafficClasses: "unknown",
	} {
		if got := tc.String(); got != want {
			t.Errorf("TrafficClass(%d).String() = %q, want %q", tc, got, want)
		}
	}
}

func TestMCKindAndCaps(t *testing.T) {
	_, net := testCluster(t, 2, 1)
	if net.Kind() != MemoryChannel {
		t.Errorf("Kind = %q", net.Kind())
	}
	if net.Caps().RemoteReads {
		t.Error("Memory Channel claims remote reads")
	}
}

func TestTransferLatencyAndBandwidth(t *testing.T) {
	eng, net := testCluster(t, 2, 1)
	params := net.Params()
	e := eng
	e.Go(e.Proc(0), func(p *sim.Proc) {
		arrival := net.Transfer(p, 1, 8192, TrafficPage)
		wantXfer := durOn(8192, params.LinkBandwidth)
		want := p.Now() + wantXfer + params.Latency
		if arrival != want {
			t.Errorf("arrival = %d, want %d", arrival, want)
		}
		if p.Now() != params.WriteCost {
			t.Errorf("sender advanced to %d, want only issue cost %d", p.Now(), params.WriteCost)
		}
		// A second transfer queues behind the first on the link.
		arrival2 := net.Transfer(p, 1, 8192, TrafficPage)
		if arrival2 < arrival+wantXfer {
			t.Errorf("second transfer arrival %d does not queue behind first %d", arrival2, arrival)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := net.TrafficBytes(TrafficPage); got != 16384 {
		t.Errorf("page traffic = %d, want 16384", got)
	}
	if net.Transfers() != 2 {
		t.Errorf("transfers = %d, want 2", net.Transfers())
	}
	if net.TotalTraffic() != 16384 {
		t.Errorf("total traffic = %d", net.TotalTraffic())
	}
}

func TestAggregateBandwidthContention(t *testing.T) {
	eng, net := testCluster(t, 4, 1)
	const bytes = 64 * 1024
	var arrivals []sim.Time
	// Two transfers on disjoint node pairs still contend for aggregate
	// bandwidth.
	eng.Go(eng.Proc(0), func(p *sim.Proc) {
		arrivals = append(arrivals, net.Transfer(p, 1, bytes, TrafficPage))
	})
	eng.Go(eng.Proc(2), func(p *sim.Proc) {
		p.Advance(1) // deterministic ordering: this transfer goes second
		p.Yield()
		arrivals = append(arrivals, net.Transfer(p, 3, bytes, TrafficPage))
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	aggDur := durOn(bytes, net.Params().AggregateBandwidth)
	if arrivals[1]-arrivals[0] < aggDur/2 {
		t.Errorf("second transfer (%d) not delayed by aggregate occupancy after first (%d)", arrivals[1], arrivals[0])
	}
}

func TestWriteThroughStallsOnFullBuffer(t *testing.T) {
	eng, net := testCluster(t, 2, 1)
	eng.Go(eng.Proc(0), func(p *sim.Proc) {
		// Issue far more bytes than the write buffer holds with no time
		// passing: the writer must stall to drain.
		start := p.Now()
		for i := 0; i < 1000; i++ {
			net.WriteThrough(p, 1, 8)
		}
		if p.Now() == start {
			t.Error("writer never stalled despite full write buffer")
		}
		// Fence waits for full drain plus latency.
		f := net.FenceTime(p)
		if f < p.Now()+net.Params().Latency {
			t.Errorf("fence %d earlier than now+latency", f)
		}
		if net.DoubledBytes(p) != 8000 {
			t.Errorf("doubled bytes = %d", net.DoubledBytes(p))
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if net.TrafficBytes(TrafficDoubling) != 8000 {
		t.Errorf("doubling traffic = %d", net.TrafficBytes(TrafficDoubling))
	}
}

func TestFenceIdleIsJustLatency(t *testing.T) {
	eng, net := testCluster(t, 2, 1)
	eng.Go(eng.Proc(0), func(p *sim.Proc) {
		net.WriteThrough(p, 1, 8)
		p.Advance(1 * sim.Millisecond) // long after drain
		if f := net.FenceTime(p); f != p.Now()+net.Params().Latency {
			t.Errorf("fence = %d, want now+latency", f)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWordVisibilityWindow(t *testing.T) {
	eng, net := testCluster(t, 2, 2)
	w := net.NewWordArray("test", 4, TrafficMeta)
	// Writer: proc 0 (node 0). Same-node reader: proc 1. Remote: proc 2.
	eng.Go(eng.Proc(0), func(p *sim.Proc) {
		w.Write(p, 0, 42)
	})
	eng.Go(eng.Proc(1), func(p *sim.Proc) {
		p.Advance(1 * sim.Microsecond)
		p.Yield()
		if v := w.Read(p, 0); v != 42 {
			t.Errorf("same-node read inside window = %d, want 42 (local receive region)", v)
		}
	})
	eng.Go(eng.Proc(2), func(p *sim.Proc) {
		p.Advance(1 * sim.Microsecond)
		p.Yield()
		if v := w.Read(p, 0); v != 0 {
			t.Errorf("remote read inside window = %d, want 0", v)
		}
		p.Advance(10 * sim.Microsecond) // past 5.2us latency
		if v := w.Read(p, 0); v != 42 {
			t.Errorf("remote read after window = %d, want 42", v)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteLoopbackHidesFromWriterNode(t *testing.T) {
	eng, net := testCluster(t, 2, 2)
	w := net.NewWordArray("lock", 1, TrafficSync)
	eng.Go(eng.Proc(0), func(p *sim.Proc) {
		w.WriteLoopback(p, 0, 7)
		if v := w.Read(p, 0); v != 0 {
			t.Errorf("loopback write visible immediately on own node: %d", v)
		}
		p.Advance(net.Params().Latency + 1)
		if v := w.Read(p, 0); v != 7 {
			t.Errorf("loopback write not visible after latency: %d", v)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSpinUntil(t *testing.T) {
	eng, net := testCluster(t, 2, 1)
	w := net.NewWordArray("flag", 1, TrafficSync)
	var sawAt sim.Time
	eng.Go(eng.Proc(0), func(p *sim.Proc) {
		v := w.SpinUntil(p, 0, func(v int64) bool { return v == 1 })
		if v != 1 {
			t.Errorf("SpinUntil returned %d", v)
		}
		sawAt = p.Now()
	})
	eng.Go(eng.Proc(1), func(p *sim.Proc) {
		p.Advance(100 * sim.Microsecond)
		p.Yield()
		w.Write(p, 0, 1)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Spinner must see the flag only after write time + latency, within the
	// max spin backoff.
	lo := 100*sim.Microsecond + net.Params().Latency
	if sawAt < lo || sawAt > lo+2*spinStepMax {
		t.Errorf("spinner saw flag at %d, want within [%d, %d]", sawAt, lo, lo+2*spinStepMax)
	}
}

func TestSpinUntilLivelockPanics(t *testing.T) {
	eng, net := testCluster(t, 1, 1)
	w := net.NewWordArray("stuck", 1, TrafficSync)
	eng.Go(eng.Proc(0), func(p *sim.Proc) {
		w.SpinUntil(p, 0, func(v int64) bool { return false })
	})
	err := eng.Run()
	if err == nil || !strings.Contains(err.Error(), "without progress") {
		t.Fatalf("Run = %v, want spin livelock panic", err)
	}
}

func TestInterruptDelivery(t *testing.T) {
	eng, net := testCluster(t, 2, 1)
	target := eng.Proc(1)
	eng.Go(eng.Proc(0), func(p *sim.Proc) {
		net.Interrupt(p, target, 5, "sig")
	})
	eng.Go(target, func(p *sim.Proc) {
		m := p.Recv("interrupt")
		if m.Kind != 5 || m.Data.(string) != "sig" {
			t.Errorf("got %+v", m)
		}
		want := net.Params().InterruptSendCost + net.Params().InterruptLatency
		if p.Now() != want {
			t.Errorf("interrupt delivered at %d, want %d", p.Now(), want)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if net.Interrupts() != 1 {
		t.Errorf("interrupts = %d", net.Interrupts())
	}
}

func TestBuildRejectsBadParams(t *testing.T) {
	cs := ClusterSpec{Nodes: 1, ProcsPerNode: 1, MC: MCParams{Latency: -1}}
	eng, err := sim.NewEngine(cs.EngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Build(eng); err == nil {
		t.Fatal("Build accepted bad MC params")
	}
}

func TestWordArrayLen(t *testing.T) {
	_, net := testCluster(t, 1, 1)
	if got := net.NewWordArray("x", 17, TrafficSync).Len(); got != 17 {
		t.Errorf("Len = %d", got)
	}
}

func TestDurOn(t *testing.T) {
	if d := durOn(0, 30e6); d != 0 {
		t.Errorf("durOn(0) = %d", d)
	}
	if d := durOn(-5, 30e6); d != 0 {
		t.Errorf("durOn(-5) = %d", d)
	}
	// 30 MB at 30 MB/s = 1 s
	if d := durOn(30e6, 30e6); d != sim.Second {
		t.Errorf("durOn(30e6) = %d, want 1s", d)
	}
}

// TestAccountTraffic covers the metadata accounting hook used by Cashmere's
// directory broadcasts.
func TestAccountTraffic(t *testing.T) {
	_, net := testCluster(t, 1, 1)
	net.AccountTraffic(TrafficMeta, 24)
	net.AccountTraffic(TrafficMeta, 8)
	if got := net.TrafficBytes(TrafficMeta); got != 32 {
		t.Errorf("meta traffic = %d, want 32", got)
	}
	if net.TotalTraffic() != 32 {
		t.Errorf("total = %d", net.TotalTraffic())
	}
}

// TestWordVisibilityTwoWritesWindow documents the single-previous-value
// approximation: a reader inside the window of the second write sees the
// first write's value.
func TestWordVisibilityTwoWritesWindow(t *testing.T) {
	eng, net := testCluster(t, 2, 1)
	w := net.NewWordArray("w", 1, TrafficSync)
	eng.Go(eng.Proc(0), func(p *sim.Proc) {
		w.Write(p, 0, 1)
		p.Advance(20 * sim.Microsecond) // first write fully visible
		w.Write(p, 0, 2)
	})
	eng.Go(eng.Proc(1), func(p *sim.Proc) {
		p.SleepUntil(22 * sim.Microsecond) // inside the second write's window
		if v := w.Read(p, 0); v != 1 {
			t.Errorf("read %d inside second window, want previous value 1", v)
		}
		p.SleepUntil(40 * sim.Microsecond)
		if v := w.Read(p, 0); v != 2 {
			t.Errorf("read %d after window, want 2", v)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestMinCrossNodeLatency checks the declared cross-node latency floor: it
// must be the smallest latency any cross-node interaction can carry, and
// every modeled cross-node arrival must respect it.
func TestMinCrossNodeLatency(t *testing.T) {
	if got, want := MCFirstGeneration().MinCrossNodeLatency(), sim.Time(5200); got != want {
		t.Errorf("MCFirstGeneration MinCrossNodeLatency = %d, want %d", got, want)
	}
	if got, want := MCSecondGeneration().MinCrossNodeLatency(), sim.Time(2600); got != want {
		t.Errorf("MCSecondGeneration MinCrossNodeLatency = %d, want %d", got, want)
	}
	fast := MCFirstGeneration()
	fast.InterruptLatency = 100 // hypothetical: interrupts faster than writes
	if got, want := fast.MinCrossNodeLatency(), sim.Time(100); got != want {
		t.Errorf("fast-interrupt MinCrossNodeLatency = %d, want %d", got, want)
	}

	// Property: a cross-node transfer issued at time s arrives no earlier
	// than s + MinCrossNodeLatency, no matter how small the payload.
	eng, net := testCluster(t, 2, 1)
	la := net.Params().MinCrossNodeLatency()
	eng.Go(eng.Proc(0), func(p *sim.Proc) {
		issue := p.Now()
		arrival := net.Transfer(p, 1, 1, TrafficMessage)
		if arrival < issue+la {
			t.Errorf("1-byte transfer arrived at %d, before issue %d + floor %d", arrival, issue, la)
		}
		net.Interrupt(p, eng.Proc(1), 1, nil)
	})
	var intrAt sim.Time
	eng.Go(eng.Proc(1), func(p *sim.Proc) {
		m := p.Recv("interrupt")
		intrAt = m.At
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if intrAt < la {
		t.Errorf("interrupt arrived at %d, inside the %d latency floor", intrAt, la)
	}
}
