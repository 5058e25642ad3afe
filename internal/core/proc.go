package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/vm"
)

// Quantum bounds how far a processor's clock may run ahead between
// scheduling points; it also slices Compute so interrupt-mode requests are
// noticed with bounded delay (the real interrupt latency dominates it).
const Quantum = 5 * sim.Microsecond

// tlbSize is the number of entries in the per-processor translation cache
// (direct-mapped by page number; must be a power of two). Sized so a stencil
// touching a handful of rows plus its write target stays fully cached.
const tlbSize = 16

// tlbEntry caches one page translation: the protection and frame observed at
// a given mapping epoch. The entry is valid only while the space's epoch is
// unchanged (any SetProt/DropFrame/frame allocation bumps it), which makes
// hits provably equivalent to a fresh table walk.
type tlbEntry struct {
	page  int
	epoch uint64
	prot  vm.Prot
	frame []byte
}

// Proc is one simulated processor's DSM context: the simulation processor,
// its page table and frames, its L1 model, its messaging endpoint, and its
// statistics. Application bodies receive a *Proc and perform all shared
// accesses, synchronization, and computation through it.
type Proc struct {
	sp    *sim.Proc
	ep    *msg.Endpoint
	space *vm.Space
	l1    *cache.L1
	rt    *Runtime

	rank  int // compute rank, or -1 for a dedicated protocol processor
	costs CostModel

	proto     Protocol
	writeHook bool

	// tlb is the translation fast path: sequential same-page accesses skip
	// the page-table walk and nil-frame check. noFastPath (SIM_NO_FASTPATH)
	// keeps the original walk-every-access path alive so tests can assert
	// the two produce byte-identical results.
	tlb        [tlbSize]tlbEntry
	noFastPath bool

	// doubleBit/mcRegion synthesize the cache-visible address of a doubled
	// write (paper §3.3.1): the MC copy region is far away (different tag)
	// with the page-offset index bit flipped.
	stats    Stats
	snap     Stats // frozen copy taken at Finish
	finished bool

	checks map[string]float64
}

// Rank returns the processor's compute rank (0-based), or -1 for a dedicated
// protocol processor.
func (p *Proc) Rank() int { return p.rank }

// NumProcs returns the number of compute processors in the run.
func (p *Proc) NumProcs() int { return len(p.rt.computeProcs) }

// Node returns the processor's SMP node.
func (p *Proc) Node() int { return p.sp.Node }

// Sim returns the underlying simulation processor.
func (p *Proc) Sim() *sim.Proc { return p.sp }

// EP returns the processor's messaging endpoint (for protocol use).
func (p *Proc) EP() *msg.Endpoint { return p.ep }

// Space returns the processor's page table (for protocol use).
func (p *Proc) Space() *vm.Space { return p.space }

// Runtime returns the owning runtime.
func (p *Proc) Runtime() *Runtime { return p.rt }

// Costs returns the cost model.
func (p *Proc) Costs() CostModel { return p.costs }

// Stats returns the processor's statistics (live; snapshot at Finish).
func (p *Proc) Stats() *Stats { return &p.stats }

// Charge adds virtual time in the given category.
func (p *Proc) Charge(cat Category, d sim.Time) {
	p.sp.Advance(d)
	p.stats.Cat[cat] += d
}

// ChargeProtocol is shorthand for Charge(CatProtocol, d), the common case in
// protocol code.
func (p *Proc) ChargeProtocol(d sim.Time) { p.Charge(CatProtocol, d) }

// checkpoint services eligible incoming requests and yields if the clock has
// run a quantum ahead. Called from poll points, compute slices, and every
// shared access. The quiet guard is exact — PollVisible is a no-op when no
// message is visible and YieldIfQuantum is a no-op under quantum — so
// skipping cannot change any virtual-time result.
func (p *Proc) checkpoint() {
	if !p.noFastPath && p.sp.CheckpointQuiet(Quantum) {
		return
	}
	p.ep.PollVisible()
	p.sp.YieldIfQuantum(Quantum)
}

// Compute charges d nanoseconds of application computation, sliced into
// quanta with checkpoints so that the processor stays responsive to
// protocol requests.
func (p *Proc) Compute(d sim.Time) {
	for d > 0 {
		step := d
		if step > Quantum {
			step = Quantum
		}
		p.Charge(CatUser, step)
		p.checkpoint()
		d -= step
	}
}

// PollPoint marks an instrumented polling site (top of an application loop,
// §3.2). In polling variants it charges the check cost; in all variants it
// is a checkpoint.
func (p *Proc) PollPoint() {
	if p.rt.cfg.PollingInstrumented {
		p.Charge(CatPolling, p.costs.PollCheck)
	}
	p.checkpoint()
}

// access charges one shared-memory reference, including the L1 model.
func (p *Proc) access(a Addr) {
	c := p.costs.MemAccess
	if p.l1 != nil && !p.l1.Access(a) {
		c += p.costs.CacheMiss
	}
	p.Charge(CatUser, c)
	p.checkpoint()
}

// fillTLB caches the translation for a page whose frame is materialized.
// The entry records the current epoch; any later mapping mutation on the
// space invalidates it wholesale.
func (p *Proc) fillTLB(page int, fr []byte) {
	if p.noFastPath {
		return
	}
	p.tlb[page&(tlbSize-1)] = tlbEntry{page: page, epoch: p.space.Epoch(), prot: p.space.Prot(page), frame: fr}
}

// readable returns the frame for the page containing a, running the
// protocol's read-fault handler first if the page is not readable.
func (p *Proc) readable(a Addr) []byte {
	page := vm.PageOf(a)
	if !p.noFastPath {
		if e := &p.tlb[page&(tlbSize-1)]; e.page == page && e.frame != nil &&
			e.epoch == p.space.Epoch() && e.prot.CanRead() {
			// Same mapping epoch: the walk below would observe exactly the
			// cached protection and frame.
			return e.frame
		}
	}
	if !p.space.Prot(page).CanRead() {
		p.stats.ReadFaults++
		p.sp.Yield() // faults are globally visible protocol actions
		p.proto.OnReadFault(p, page)
		if !p.space.Prot(page).CanRead() {
			panic(fmt.Sprintf("core: proc %d page %d still unreadable after fault", p.sp.ID, page))
		}
	}
	fr := p.space.Frame(page)
	if fr == nil {
		fr = p.materialize(page)
	}
	p.fillTLB(page, fr)
	return fr
}

// writable returns the frame for the page containing a, running the
// protocol's write-fault handler first if the page is not writable.
func (p *Proc) writable(a Addr) []byte {
	page := vm.PageOf(a)
	if !p.noFastPath {
		if e := &p.tlb[page&(tlbSize-1)]; e.page == page && e.frame != nil &&
			e.epoch == p.space.Epoch() && e.prot.CanWrite() {
			return e.frame
		}
	}
	if !p.space.Prot(page).CanWrite() {
		p.stats.WriteFaults++
		p.sp.Yield()
		p.proto.OnWriteFault(p, page)
		if !p.space.Prot(page).CanWrite() {
			panic(fmt.Sprintf("core: proc %d page %d still unwritable after fault", p.sp.ID, page))
		}
	}
	fr := p.space.Frame(page)
	if fr == nil {
		fr = p.materialize(page)
	}
	p.fillTLB(page, fr)
	return fr
}

// materialize lazily creates a frame for a page whose protection allows
// access but whose data was never copied in: the page still holds the
// initial image distributed (untimed) at startup, as in real TreadMarks,
// where every processor starts with an identical valid copy. No cost is
// charged — the copy logically happened during setup.
func (p *Proc) materialize(page int) []byte {
	fr := p.space.EnsureFrame(page)
	if img := p.rt.InitialPage(page); img != nil {
		copy(fr, img)
	}
	return fr
}

// MaterializedFrame returns the page's local frame, creating it from the
// initial image if it was never touched. Protocol fault handlers use this
// when they need the page contents (e.g. to twin a page whose first local
// access is the faulting write).
func (p *Proc) MaterializedFrame(page int) []byte {
	if fr := p.space.Frame(page); fr != nil {
		return fr
	}
	return p.materialize(page)
}

// ReadF64 reads a float64 from shared memory.
func (p *Proc) ReadF64(a Addr) float64 {
	fr := p.readable(a)
	p.access(a)
	return math.Float64frombits(binary.LittleEndian.Uint64(fr[vm.Offset(a):]))
}

// WriteF64 writes a float64 to shared memory.
func (p *Proc) WriteF64(a Addr, v float64) {
	fr := p.writable(a)
	binary.LittleEndian.PutUint64(fr[vm.Offset(a):], math.Float64bits(v))
	p.access(a)
	if p.writeHook {
		p.proto.OnSharedWrite(p, a, 8)
	}
}

// ReadI64 reads an int64 from shared memory.
func (p *Proc) ReadI64(a Addr) int64 {
	fr := p.readable(a)
	p.access(a)
	return int64(binary.LittleEndian.Uint64(fr[vm.Offset(a):]))
}

// WriteI64 writes an int64 to shared memory.
func (p *Proc) WriteI64(a Addr, v int64) {
	fr := p.writable(a)
	binary.LittleEndian.PutUint64(fr[vm.Offset(a):], uint64(v))
	p.access(a)
	if p.writeHook {
		p.proto.OnSharedWrite(p, a, 8)
	}
}

// ReadF64Range reads len(dst) consecutive float64 elements starting at a
// into dst. It is semantically identical to len(dst) individual ReadF64
// calls at a, a+8, ...: the same faults are taken, the same per-element
// access and L1 costs are charged in the same order, and the same
// checkpoints fire at the same clock values. The fast path checks
// protection once per page run instead of once per element, re-translating
// only when protocol work inside a checkpoint moved the mapping epoch.
func (p *Proc) ReadF64Range(a Addr, dst []float64) {
	if p.noFastPath {
		for i := range dst {
			dst[i] = p.ReadF64(a + Addr(i)*8)
		}
		return
	}
	i := 0
outer:
	for i < len(dst) {
		addr := a + Addr(i)*8
		fr := p.readable(addr)
		epoch := p.space.Epoch()
		off := vm.Offset(addr)
		run := (vm.PageSize - off) / 8
		if run <= 0 {
			// Element straddles the end of its page: defer to the scalar
			// path so the failure mode is identical.
			dst[i] = p.ReadF64(addr)
			i++
			continue
		}
		if rem := len(dst) - i; run > rem {
			run = rem
		}
		for k := 0; k < run; k++ {
			p.access(addr + Addr(k)*8)
			dst[i+k] = math.Float64frombits(binary.LittleEndian.Uint64(fr[off+8*k:]))
			if p.space.Epoch() != epoch {
				// A checkpoint inside access ran protocol work that changed
				// the mapping; re-translate before the next element.
				i += k + 1
				continue outer
			}
		}
		i += run
	}
}

// CacheTouch runs an extra address through the L1 model without reading data
// (the doubled write's second store, charged by Cashmere).
func (p *Proc) CacheTouch(a uint64) bool {
	if p.l1 == nil {
		return true
	}
	return p.l1.Access(a)
}

// SpinWait polls cond until it returns true, servicing eligible protocol
// requests between polls (the paper hand-instruments the protocol libraries,
// so spin loops poll too) and advancing the clock with exponential backoff.
// The wait time lands in Comm&Wait (uncharged). SpinWait panics if no
// progress is made for a long virtual-time bound (protocol livelock).
func (p *Proc) SpinWait(what string, cond func() bool) {
	const (
		stepMin = 500 * sim.Nanosecond
		stepMax = 20 * sim.Microsecond
		// Long enough that heavy lock congestion (32 processors queueing on
		// millisecond critical sections under interrupt-based variants) is
		// not mistaken for a livelock.
		limit = 120 * sim.Second
	)
	deadline := p.sp.Now() + limit
	step := stepMin
	// PollWait lets whichever goroutine dispatches this processor's queue
	// entry probe the condition inline, so a contended spin costs no host
	// goroutine switches. The closure must not yield or block: cond reads
	// memory (charging access costs) and PollVisible only services handlers
	// that charge and reply, which holds for every protocol that spins
	// (Cashmere's locks and barriers; TreadMarks waits in Recv instead).
	p.sp.PollWait(func() (bool, sim.Time) {
		if cond() {
			return true, 0
		}
		if p.sp.Now() > deadline {
			panic(fmt.Sprintf("core: proc %d spun %dns on %q without progress", p.sp.ID, limit, what))
		}
		p.ep.PollVisible()
		p.sp.Advance(step)
		if step < stepMax {
			step *= 2
		}
		return false, p.sp.Now()
	})
}

// Lock acquires application lock id.
func (p *Proc) Lock(id int) {
	p.stats.LockAcquires++
	p.sp.Yield()
	p.proto.Lock(p, id)
}

// Unlock releases application lock id.
func (p *Proc) Unlock(id int) {
	p.sp.Yield()
	p.proto.Unlock(p, id)
}

// Barrier blocks until all compute processors reach barrier id.
func (p *Proc) Barrier(id int) {
	p.stats.Barriers++
	p.sp.Yield()
	p.proto.Barrier(p, id)
}

// Finish snapshots the measurement point: the paper's execution times end at
// the final barrier; verification reads afterwards are neither timed nor
// counted. If the body never calls Finish, it is taken at body return.
func (p *Proc) Finish() {
	if p.finished {
		return
	}
	p.finished = true
	p.stats.FinishedAt = p.sp.Now()
	p.stats.Messages = p.ep.MessagesSent()
	p.stats.DataBytes = p.ep.BytesSent()
	if p.l1 != nil {
		p.stats.CacheHits = p.l1.Hits()
		p.stats.CacheMisses = p.l1.Misses()
	}
	p.snap = p.stats
}

// Snapshot returns the statistics frozen at Finish (the live statistics if
// Finish has not run yet).
func (p *Proc) Snapshot() Stats {
	if p.finished {
		return p.snap
	}
	return p.stats
}

// ReportCheck records a named validation value (e.g. a residual or checksum)
// surfaced in the run's Result. Typically called by rank 0 after Finish.
func (p *Proc) ReportCheck(name string, v float64) {
	if p.checks == nil {
		p.checks = make(map[string]float64)
	}
	p.checks[name] = v
}
