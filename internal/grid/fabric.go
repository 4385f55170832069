package grid

import "rmscale/internal/sim"

// This file is the engine's message fabric: every network hop the
// engine schedules — status updates, digest shares, policy messages,
// job transfers and dispatches — travels as a pooled delivery record.
// A record binds its fire method once, when the pool grows, and each
// hop schedules that bound value, so a message in flight costs no
// closure. The kernel API is unchanged: every hop still makes exactly
// one Schedule/After call at the instant the closure it replaced did,
// so the (time, seq) fire order, and every output, is the same.

// deliveryKind says what a record hands over when it lands.
type deliveryKind uint8

const (
	dlvIngest   deliveryKind = iota // a status update at an estimator (est, status)
	dlvStatus                       // a direct status update at a scheduler (sched, status)
	dlvDigest                       // a digest share at a scheduler (sched, d)
	dlvDispatch                     // a dispatched job at a resource (res, ctx)
	dlvMessage                      // a protocol message at a scheduler (sched, msg)
	dlvTransfer                     // a job envelope at a scheduler (sched, ctx)
)

// deliveryStage says what a record's next fire does.
type deliveryStage uint8

const (
	stageLand     deliveryStage = iota // hand the payload to the receiver
	stageMwArrive                      // join the middleware's FIFO
	stageMwServed                      // leave the middleware for the receiver
	stageRetry                         // retransmit after a sender timeout
)

// delivery is one message in flight. Exactly one receiver field is set
// and the payload fields the kind names; the rest stay zero.
type delivery struct {
	eng    *Engine
	fireFn func() // fire, bound once when the record was made

	kind  deliveryKind
	stage deliveryStage

	sched *Scheduler // dlvStatus, dlvDigest, dlvMessage, dlvTransfer
	est   *Estimator // dlvIngest
	res   *Resource  // dlvDispatch

	status statusItem // dlvIngest, dlvStatus
	d      digest     // dlvDigest: the receiver's share
	msg    *Message   // dlvMessage
	ctx    *JobCtx    // dlvDispatch, dlvTransfer

	// Protocol kinds only: the sending scheduler, the end-to-end
	// network delay (the middleware splits it around its queue) and,
	// with faults armed, the retransmission count.
	from    *Scheduler
	net     sim.Time
	attempt int
}

// newDelivery takes a record of the given kind from the engine's free
// list, growing the pool when the list is empty. The pool grows to the
// run's peak number of messages in flight; after that every hop reuses
// a record.
func (e *Engine) newDelivery(kind deliveryKind) *delivery {
	if n := len(e.free); n > 0 {
		d := e.free[n-1]
		e.free = e.free[:n-1]
		d.kind = kind
		return d
	}
	//lint:allow hotalloc pool growth: one record per message the run ever has in flight at once, then every hop reuses one
	d := &delivery{eng: e, kind: kind}
	d.fireFn = d.fire
	return d
}

// release clears the record, so the pool pins no payload, and returns
// it to the free list. A record is released exactly once per use, by
// the fire that lands it or by abandon; one still in flight when the
// run ends is never returned and goes with the engine.
func (d *delivery) release() {
	e := d.eng
	*d = delivery{eng: e, fireFn: d.fireFn}
	e.free = append(e.free, d)
}

// fire runs the record's next stage. Landing copies the record's fields
// out and releases it before anything else runs, so the receiver's work
// — which may itself send — can reuse it at once; the payload lives on in
// the receiver's CPU work item, never in the record, which is why a
// crash that drops queued work has no record to give back.
//
//lint:hotpath every network hop of the engine fires here; engine/*/allocs_per_event budgets it
func (d *delivery) fire() {
	e := d.eng
	switch d.stage {
	case stageMwArrive:
		e.mw.serve(d)
		return
	case stageMwServed:
		d.stage = stageLand
		e.K.After(d.net/2, d.fireFn)
		return
	case stageRetry:
		e.protoSend(d)
		return
	}
	if e.fs != nil && (d.kind == dlvMessage || d.kind == dlvTransfer) && d.sched.down {
		// A protocol message that reaches a dead scheduler is lost like
		// one dropped in transit: the sender's timeout notices. Status
		// and digest records into a dead scheduler just drop (exec).
		e.Metrics.MsgsLost++
		e.retryOrAbandon(d)
		return
	}
	// Each case copies what it hands over and releases the record
	// before the receiver runs.
	c := e.Cfg.Costs
	switch d.kind {
	case dlvIngest:
		est, st := d.est, d.status
		d.release()
		w := workItem{kind: workIngest, status: st}
		est.exec(c.EstimatorPer, &w)
	case dlvStatus:
		s, st := d.sched, d.status
		d.release()
		w := workItem{kind: workStatus, status: st}
		s.exec(c.UpdateBatchBase+c.UpdatePer, &w)
	case dlvDigest:
		s, share := d.sched, d.d
		d.release()
		w := workItem{kind: workDigest, d: share}
		s.exec(c.UpdateBatchBase+c.UpdatePer*float64(share.total()), &w)
	case dlvDispatch:
		r, ctx := d.res, d.ctx
		d.release()
		r.enqueue(ctx)
	case dlvMessage:
		s, m := d.sched, d.msg
		d.release()
		w := workItem{kind: workMsg, msg: m}
		s.exec(c.Message, &w)
	case dlvTransfer:
		s, ctx := d.sched, d.ctx
		d.release()
		s.own(ctx)
		w := workItem{kind: workJob, ctx: ctx}
		s.exec(c.Message, &w)
	}
}

// send puts a protocol record on the wire: through the timeout/retry
// path when faults are armed, else straight onto its route.
func (e *Engine) send(d *delivery) {
	if e.fs != nil {
		e.protoSend(d)
		return
	}
	e.route(d)
}

// route carries a protocol record to its receiver: through the
// middleware queue when the policy uses one, else over the network.
func (e *Engine) route(d *delivery) {
	if e.mw != nil {
		e.mw.enqueue(d)
		return
	}
	d.stage = stageLand
	e.K.After(d.net, d.fireFn)
}

// abandon settles a protocol record whose retry budget ran out. A
// message is simply gone — the session it belonged to stalls, exactly
// the degradation the churn experiment measures — while a job envelope
// bounces back to its sender: it is never lost to the network.
func (d *delivery) abandon() {
	e, kind, from, ctx := d.eng, d.kind, d.from, d.ctx
	d.release()
	if kind == dlvTransfer {
		e.deliverToScheduler(from, ctx)
	}
}

// middleware is the grid middleware of the S-I family: a single FIFO
// queue with infinite capacity and a small, finite service time that
// every inter-scheduler message passes through.
type middleware struct {
	eng       *Engine
	busyUntil sim.Time
}

// enqueue routes a record through the middleware: half the network
// delay to the middleware, FIFO service (serve), then the other half to
// the receiver.
//
//lint:hotpath the S-I family funnels every message through this queue; engine/S-I/allocs_per_event budgets it
func (mw *middleware) enqueue(d *delivery) {
	k := mw.eng.K
	d.stage = stageMwArrive
	k.Schedule(k.Now()+d.net/2, d.fireFn)
}

// serve queues an arrived record for the middleware's service.
func (mw *middleware) serve(d *delivery) {
	k := mw.eng.K
	start := mw.busyUntil
	if start < k.Now() {
		start = k.Now()
	}
	finish := start + mw.eng.Cfg.Protocol.MiddlewareTime
	mw.busyUntil = finish
	mw.eng.Metrics.MiddlewareBusy += mw.eng.Cfg.Protocol.MiddlewareTime
	d.stage = stageMwServed
	k.Schedule(finish, d.fireFn)
}
