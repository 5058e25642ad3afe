// Switched backend: a two-level leaf/spine fabric in the style of the
// rack-scale disaggregated-memory simulators in the related work. Where the
// Memory Channel's hub makes every node pair equidistant (and its aggregate
// bandwidth flat in node count), the switched model makes topology matter:
//
//   - Per-hop latency: nodes attach to leaf switches of SwitchRadix ports;
//     a transfer crosses two switch hops when source and destination share a
//     leaf and four hops (leaf, spine, leaf) when they do not, each hop
//     adding HopLatency on top of the fixed endpoint overhead.
//   - Link contention: each node's access link and each leaf's uplink to
//     the spine are occupancy horizons; cross-leaf traffic contends on both
//     leaves' uplinks, so locality is visible in completion times.
//   - No remote reads: like the Memory Channel, the fabric only moves
//     writes; protocols keep using their message-based fetch paths.
//
// Broadcast regions (WordArray) use the fabric diameter as their visibility
// horizon: a write is declared remotely visible only once it would have
// reached the farthest node, which preserves the total write ordering the
// lock and directory algorithms assume (a closer node never legally observes
// two writes in a different order than a farther one).
package interconnect

import (
	"fmt"

	"repro/internal/sim"
)

// SwitchedParams are the switched-fabric timing and capacity parameters.
// Zero values are invalid; use the DefaultSwitched preset.
type SwitchedParams struct {
	// SwitchRadix is the number of nodes per leaf switch.
	SwitchRadix int
	// WireLatency is the fixed endpoint overhead per transfer (NIC plus
	// serialization at the edges).
	WireLatency sim.Time
	// HopLatency is the per-switch traversal latency.
	HopLatency sim.Time
	// WriteCost is the processor-side cost of issuing one write to the
	// fabric adapter.
	WriteCost sim.Time
	// LinkBandwidth is each node's access-link bandwidth in bytes/second.
	LinkBandwidth int64
	// UplinkBandwidth is each leaf switch's uplink bandwidth to the spine in
	// bytes/second; cross-leaf traffic serializes on both leaves' uplinks.
	UplinkBandwidth int64
	// InterruptSendCost is the sender-side cost of an inter-node signal.
	InterruptSendCost sim.Time
	// InterruptLatency is the end-to-end inter-node signal latency.
	InterruptLatency sim.Time
	// WriteBufferBytes is the write-buffer depth feeding the adapter.
	WriteBufferBytes int64
}

// DefaultSwitched is the switched-fabric preset: Memory-Channel-era link
// speeds behind an 8-port leaf, with a 4x uplink so the spine is not an
// automatic bottleneck.
func DefaultSwitched() SwitchedParams {
	return SwitchedParams{
		SwitchRadix:       8,
		WireLatency:       2 * sim.Microsecond,
		HopLatency:        500,
		WriteCost:         250,
		LinkBandwidth:     60e6,
		UplinkBandwidth:   240e6,
		InterruptSendCost: 5 * sim.Microsecond,
		InterruptLatency:  200 * sim.Microsecond,
		WriteBufferBytes:  1024,
	}
}

// MinCrossNodeLatency returns the smallest cross-node latency the
// parameters can produce: the same-leaf (two-hop) path, or the interrupt
// latency if that is somehow smaller.
func (p SwitchedParams) MinCrossNodeLatency() sim.Time {
	min := p.WireLatency + 2*p.HopLatency
	if p.InterruptLatency < min {
		min = p.InterruptLatency
	}
	return min
}

// Validate reports whether the parameters are usable.
func (p SwitchedParams) Validate() error {
	if p.SwitchRadix <= 0 {
		return fmt.Errorf("interconnect: non-positive switch radix %d", p.SwitchRadix)
	}
	if p.WireLatency <= 0 || p.HopLatency <= 0 || p.WriteCost <= 0 ||
		p.InterruptSendCost <= 0 || p.InterruptLatency <= 0 {
		return fmt.Errorf("interconnect: non-positive switched-fabric timing parameter: %+v", p)
	}
	if p.LinkBandwidth <= 0 || p.UplinkBandwidth <= 0 || p.WriteBufferBytes <= 0 {
		return fmt.Errorf("interconnect: non-positive switched-fabric capacity parameter: %+v", p)
	}
	return nil
}

// switchNet is the switched-fabric instance for one simulated cluster.
// Construct it through ClusterSpec.Build.
type switchNet struct {
	stats
	params SwitchedParams
	nodes  int

	// linkFree[n] is the time node n's access link is next free;
	// uplinkFree[l] the same for leaf l's uplink to the spine.
	linkFree   []sim.Time
	uplinkFree []sim.Time

	pipe []pipeState
}

// newSwitched creates a switched fabric for the engine's cluster.
func newSwitched(eng *sim.Engine, params SwitchedParams) (*switchNet, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	nodes := eng.Config().Nodes
	leaves := (nodes + params.SwitchRadix - 1) / params.SwitchRadix
	if leaves == 0 {
		leaves = 1
	}
	return &switchNet{
		params:     params,
		nodes:      nodes,
		linkFree:   make([]sim.Time, nodes),
		uplinkFree: make([]sim.Time, leaves),
		pipe:       make([]pipeState, eng.NumProcs()),
	}, nil
}

// Kind implements Interconnect.
func (n *switchNet) Kind() Kind { return Switched }

// Caps implements Interconnect: remote writes only. The diameter visibility
// horizon (see the package comment above) gives the contract's total write
// ordering.
func (n *switchNet) Caps() Caps { return Caps{RemoteReads: false} }

// Params returns the network parameters.
func (n *switchNet) Params() SwitchedParams { return n.params }

func (n *switchNet) leaf(node int) int { return node / n.params.SwitchRadix }

// pathLatency returns the src->dst wire-plus-hop latency.
func (n *switchNet) pathLatency(src, dst int) sim.Time {
	hops := sim.Time(2)
	if n.leaf(src) != n.leaf(dst) {
		hops = 4
	}
	return n.params.WireLatency + hops*n.params.HopLatency
}

// diameter returns the worst-case path latency in this cluster: the horizon
// broadcast writes use so that visibility (and thus observed write order) is
// uniform across nodes.
func (n *switchNet) diameter() sim.Time {
	hops := sim.Time(2)
	if n.nodes > n.params.SwitchRadix {
		hops = 4
	}
	return n.params.WireLatency + hops*n.params.HopLatency
}

// MinCrossNodeLatency implements Interconnect.
func (n *switchNet) MinCrossNodeLatency() sim.Time { return n.params.MinCrossNodeLatency() }

// InterruptSendCost implements Interconnect.
func (n *switchNet) InterruptSendCost() sim.Time { return n.params.InterruptSendCost }

// InterruptLatency implements Interconnect.
func (n *switchNet) InterruptLatency() sim.Time { return n.params.InterruptLatency }

// Transfer implements Interconnect: occupancy on both access links (and on
// both leaf uplinks for cross-leaf traffic) plus the per-hop path latency.
func (n *switchNet) Transfer(p *sim.Proc, dst int, bytes int64, tc TrafficClass) sim.Time {
	p.Advance(n.params.WriteCost)
	src := p.Node
	start := p.Now()
	if n.linkFree[src] > start {
		start = n.linkFree[src]
	}
	if dst != src && n.linkFree[dst] > start {
		start = n.linkFree[dst]
	}
	crossLeaf := n.leaf(src) != n.leaf(dst)
	if crossLeaf {
		if up := n.uplinkFree[n.leaf(src)]; up > start {
			start = up
		}
		if up := n.uplinkFree[n.leaf(dst)]; up > start {
			start = up
		}
	}
	linkDur := durOn(bytes, n.params.LinkBandwidth)
	n.linkFree[src] = start + linkDur
	if dst != src {
		n.linkFree[dst] = start + linkDur
	}
	if crossLeaf {
		upDur := durOn(bytes, n.params.UplinkBandwidth)
		n.uplinkFree[n.leaf(src)] = start + upDur
		n.uplinkFree[n.leaf(dst)] = start + upDur
	}
	n.bytesByClass[tc] += bytes
	n.transfers++
	return start + linkDur + n.pathLatency(src, dst)
}

// RemoteRead implements Interconnect: the switched fabric, like the Memory
// Channel, only moves writes.
func (n *switchNet) RemoteRead(p *sim.Proc, src int, bytes int64, tc TrafficClass) sim.Time {
	panic("interconnect: the switched fabric has no remote reads (Caps().RemoteReads is false)")
}

// WriteThrough implements Interconnect: doubled writes drain through the
// node's access link.
func (n *switchNet) WriteThrough(p *sim.Proc, home int, bytes int64) {
	ps := &n.pipe[p.ID]
	if ps.drainAt < p.Now() {
		ps.drainAt = p.Now()
	}
	ps.drainAt += durOn(bytes, n.params.LinkBandwidth)
	ps.bytes += bytes
	n.bytesByClass[TrafficDoubling] += bytes
	if backlog := ps.drainAt - p.Now(); backlog > durOn(n.params.WriteBufferBytes, n.params.LinkBandwidth) {
		p.AdvanceTo(ps.drainAt - durOn(n.params.WriteBufferBytes, n.params.LinkBandwidth))
	}
}

// FenceTime implements Interconnect: drain plus the fabric diameter, since
// a release must cover writes headed to the farthest home node.
func (n *switchNet) FenceTime(p *sim.Proc) sim.Time {
	d := n.pipe[p.ID].drainAt
	if d < p.Now() {
		d = p.Now()
	}
	return d + n.diameter()
}

// DoubledBytes returns the total write-through bytes issued by processor p.
func (n *switchNet) DoubledBytes(p *sim.Proc) int64 { return n.pipe[p.ID].bytes }

// Interrupt implements Interconnect.
func (n *switchNet) Interrupt(p *sim.Proc, target *sim.Proc, kind int, data any) {
	p.Advance(n.params.InterruptSendCost)
	n.interrupts++
	target.Deliver(p.NewMsg(p.Now()+n.params.InterruptLatency, kind, data))
}

// NewWordArray implements Interconnect: broadcast words become remotely
// visible at the fabric diameter (see the package comment).
func (n *switchNet) NewWordArray(name string, nwords int, tc TrafficClass) *WordArray {
	return newWordArray(&n.stats, n.params.WriteCost, n.diameter(), name, nwords, tc)
}
