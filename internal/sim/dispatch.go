package sim

import "fmt"

// dsmvet:dispatch — called only by the baton holder.
//
// nextMsgSeq hands out the engine's message sequence numbers: 1, 2, 3, ...
func (e *Engine) nextMsgSeq() uint64 {
	e.msgSeq++
	return e.msgSeq
}

// dsmvet:dispatch — called by the baton holder (yields, wakes) or by Run
// before any processor goroutine starts.
//
// enqueue makes target runnable at virtual time t.
func (e *Engine) enqueue(target *Proc, t Time) {
	target.state = stateQueued
	target.queueSeq++
	target.queuedAt = t
	e.pushCount++
	e.runq.push(entry{at: t, order: e.pushCount, procID: target.ID, seq: target.queueSeq})
}

// dsmvet:dispatch — called by the running (baton-holding) processor.
//
// canElide reports whether a yield by the running processor until virtual
// time t may skip the report/resume channel round-trip entirely. It may:
// exactly one goroutine runs at a time, so the run queue is quiescent, and if
// every runnable processor's resume time is strictly after t the dispatch
// loop would pop the yielder's own entry and hand the baton straight back.
// Ties are not elidable: FIFO order among equal times would run the already
// queued processor first. Stale heap heads (entries superseded by a later
// WakeAt) are discarded on the way, exactly as the dispatch loop would
// discard them when popped.
func (e *Engine) canElide(t Time) bool {
	if !e.fastYield {
		return false
	}
	for {
		head, ok := e.runq.peek()
		if !ok {
			// No other runnable processor: the yielder would be re-dispatched
			// immediately.
			return true
		}
		q := e.procs[head.procID]
		if q.state != stateQueued || head.seq != q.queueSeq {
			e.runq.pop() // stale entry; the dispatch loop would skip it too
			continue
		}
		return t < head.at
	}
}

// dsmvet:dispatch — runs on the dispatching goroutine, which holds the baton.
//
// dispatchPoll evaluates a parked processor's PollWait closure inline on the
// dispatching goroutine. On (false, next) the processor is re-queued and the
// dispatcher keeps going — no goroutine switch happened. On done the poll is
// cleared and the caller must resume the processor's goroutine for real. A
// panic inside the poll (e.g. a spin-wait livelock bound) is captured and
// returned as an error; the caller aborts the run with it.
func (e *Engine) dispatchPoll(q *Proc, at Time) (resume bool, err error) {
	if at > q.now {
		q.now = at
	}
	q.state = stateRunning
	// This loop must mirror PollWait's own exactly — including the elision
	// branch, which probes again without re-queueing. Re-queueing on every
	// probe would advance pushCount and queueSeq on a different schedule
	// than the processor's own goroutine would have, silently changing FIFO
	// tie-breaking everywhere downstream.
	for {
		e.polls++
		done, next := func() (done bool, next Time) {
			e.polling = true
			defer func() {
				e.polling = false
				if r := recover(); r != nil {
					err = fmt.Errorf("sim: proc %d poll panicked: %v", q.ID, r)
				}
			}()
			return q.poll()
		}()
		if err != nil {
			return false, err
		}
		if done {
			q.poll = nil
			return true, nil
		}
		if next < q.now {
			next = q.now
		}
		if e.canElide(next) {
			e.elided++
			q.lastYield = q.now
			if next > q.now {
				q.now = next
			}
			continue
		}
		q.lastYield = q.now
		e.enqueue(q, next)
		return false, nil
	}
}

// dsmvet:dispatch — runs on the goroutine that holds the baton.
//
// next pops the minimum live run-queue entry and makes its processor the
// running one, with its clock advanced to the entry's time. Stale entries
// are discarded and parked polls evaluated inline on the way, so a processor
// whose poll is not yet done never surfaces. It reports false when no live
// entry remains, and returns a poll's panic as an error.
func (e *Engine) next() (*Proc, bool, error) {
	for {
		ent, ok := e.runq.peek()
		if !ok {
			return nil, false, nil
		}
		q := e.procs[ent.procID]
		if q.state != stateQueued || ent.seq != q.queueSeq {
			e.runq.pop() // stale queue entry superseded by a later Wake
			continue
		}
		e.runq.pop()
		if q.poll != nil {
			resume, err := e.dispatchPoll(q, ent.at)
			if err != nil {
				return nil, false, err
			}
			if !resume {
				continue // re-queued without a goroutine switch
			}
		}
		if ent.at > q.now {
			q.now = ent.at
		}
		q.state = stateRunning
		return q, true, nil
	}
}

// dsmvet:dispatch — runs on p's goroutine, which holds the baton until the
// resume send below transfers it.
//
// passBaton dispatches the next runnable processor directly from p's
// goroutine, without waking the dispatch loop, and parks p until a
// dispatcher resumes it. If p's own entry comes up next it returns at once
// with p running. Returns false, having dispatched nothing, only when the run
// queue holds no live entry. A poll's panic is re-raised on p's goroutine,
// which aborts the run through p's panic report.
func (e *Engine) passBaton(p *Proc) bool {
	q, ok, err := e.next()
	if err != nil {
		panic(err)
	}
	if !ok {
		return false
	}
	if q == p {
		return true
	}
	e.handoffs++
	q.resume <- struct{}{}
	<-p.resume
	return true
}

// handoff performs a yield dispatch entirely on the yielding processor's
// goroutine: it enqueues p to resume at t (exactly as the dispatch loop does
// on a yield report) and passes the baton to the minimum runnable processor.
// This is bit-exact with routing through the dispatch loop — the enqueue and
// dispatch steps are the same code, in the same order — but costs one
// goroutine switch instead of two. p's fresh entry is live, so a successor
// always exists.
func (e *Engine) handoff(p *Proc, t Time) {
	e.enqueue(p, t)
	e.passBaton(p)
}

// dispatchBlocked marks p blocked and passes the baton to the next runnable
// processor directly, parking p until a WakeAt re-queues it. p must be marked
// blocked before anything else is dispatched: an inline poll evaluated from
// here may deliver a message to p, and the resulting wake only re-queues a
// processor it observes as parked. If that happens, p's own entry surfaces
// in the queue and p keeps running — exactly as if the wake had arrived
// after p parked. Returns false when no processor is runnable; the caller
// must then report to the dispatch loop so deadlock detection runs.
func (e *Engine) dispatchBlocked(p *Proc) bool {
	p.state = stateBlocked
	return e.passBaton(p)
}

// dsmvet:dispatch — the engine's dispatch loop; it owns the baton whenever no
// processor goroutine does.
//
// dispatch resumes runnable processors in (time, push order) until the queue
// drains or a processor panics.
func (e *Engine) dispatch() error {
	for {
		p, ok, err := e.next()
		if err != nil {
			// Unlike a body panic, the poll's owner goroutine is still
			// parked (killParked unwinds it), so active is not decremented.
			return err
		}
		if !ok {
			return nil
		}
		p.resume <- struct{}{}
		// With direct handoff enabled the baton may pass between processor
		// goroutines many times before anything is reported, so the reporter
		// (r.p) is not necessarily the processor dispatched above.
		r := <-e.reports
		switch r.kind {
		case reportYield:
			e.enqueue(r.p, r.at)
		case reportBlock:
			r.p.state = stateBlocked
		case reportDone:
			r.p.state = stateDone
			e.active--
		case reportPanic:
			r.p.state = stateDone
			e.active--
			return r.err
		}
	}
}
