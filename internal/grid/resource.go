package grid

import (
	"rmscale/internal/sim"
)

// execJob is one job in flight at a resource.
type execJob struct {
	ctx   *JobCtx
	start sim.Time
}

// Resource is one managee node: a FCFS single server with a finite
// service rate. It reports its load to the RMS through periodic,
// change-suppressed status updates on a lazy clock: a tick event is
// pending only while the next update instant could send (see
// markDirty and DESIGN.md §4).
type Resource struct {
	id      int
	node    int // topology node
	cluster int
	eng     *Engine

	running *execJob
	queue   []*JobCtx
	down    bool

	// dirty is set whenever the load changed since the last sent
	// update; a clean resource suppresses its periodic update.
	dirty        bool
	lastSentLoad float64

	// The lazy update clock. next is the earliest phase-aligned update
	// instant not yet accounted for, advanced by the same repeated
	// next+tau addition a periodic ticker performs; armed reports
	// whether a tick event is pending at next. tickFn is the bound tick,
	// built once so arming allocates nothing.
	tau    sim.Time
	next   sim.Time
	armed  bool
	tickFn func()
}

// Load is the paper's loading condition: jobs in service plus queued.
func (r *Resource) Load() float64 {
	n := len(r.queue)
	if r.running != nil {
		n++
	}
	return float64(n)
}

// ID returns the dense resource id.
func (r *Resource) ID() int { return r.id }

// Cluster returns the owning cluster.
func (r *Resource) Cluster() int { return r.cluster }

// Node returns the topology node hosting the resource.
func (r *Resource) Node() int { return r.node }

// Down reports whether the resource is crashed.
func (r *Resource) Down() bool { return r.down }

// enqueue accepts a dispatched job. Arrival at a crashed resource
// bounces the job back to its origin scheduler.
func (r *Resource) enqueue(ctx *JobCtx) {
	if r.down {
		r.eng.bounce(ctx)
		return
	}
	r.eng.Metrics.RPOverhead += r.eng.Cfg.Costs.JobControl
	r.markDirty()
	if r.running == nil {
		r.start(ctx)
		return
	}
	r.queue = append(r.queue, ctx)
}

// start begins executing ctx now; service time is runtime / mu.
func (r *Resource) start(ctx *JobCtx) {
	now := r.eng.K.Now()
	//lint:allow hotalloc one execution record per job start: a per-job cost the dispatch gate budgets
	r.running = &execJob{ctx: ctx, start: now}
	r.eng.Metrics.WaitTimes.Add(float64(now - ctx.Job.Arrival))
	service := ctx.Job.Runtime / r.eng.Cfg.ServiceRate
	//lint:allow hotalloc one completion closure per job execution: a per-job cost the dispatch gate budgets
	r.eng.K.After(service, func() { r.complete(ctx) })
}

// complete finishes the running job and records its outcome.
func (r *Resource) complete(ctx *JobCtx) {
	if r.down || r.running == nil || r.running.ctx != ctx {
		// The job was destroyed by a crash before completing.
		return
	}
	now := r.eng.K.Now()
	m := r.eng.Metrics
	m.JobsCompleted++
	m.ResponseTimes.Add(float64(now - ctx.Job.Arrival))
	if now <= ctx.Job.Deadline() {
		m.JobsSucceeded++
		m.UsefulWork += ctx.Job.Runtime
	} else {
		// Work the pool consumed without delivering user benefit is RP
		// overhead: the resource pool spent the cycles, the client got
		// nothing. This is the dominant component of H in a stressed
		// system and is what couples the efficiency band to the
		// quality (freshness) of the RMS's information.
		m.WastedWork += ctx.Job.Runtime
		m.RPOverhead += ctx.Job.Runtime
	}
	r.running = nil
	r.markDirty()
	if len(r.queue) > 0 {
		next := r.queue[0]
		r.queue = r.queue[1:]
		r.start(next)
	}
}

// startUpdates places the first status update instant with a phase
// offset so the whole pool does not synchronize its update bursts. The
// clock is armed there only when that instant could send; otherwise the
// first state change arms it (markDirty).
func (r *Resource) startUpdates(tau float64, phase *sim.Stream) {
	r.tau = tau
	r.next = r.eng.K.Now() + phase.Uniform(0, tau)
	r.tickFn = r.tick
	if r.eng.Cfg.Protocol.SuppressDelta <= 0 {
		r.arm()
	}
}

// arm schedules the tick at the next update instant.
func (r *Resource) arm() {
	r.armed = true
	r.eng.K.Schedule(r.next, r.tickFn)
}

// markDirty records a load change. It is the only way the state a tick
// decides on — (down, load, dirty, lastSentLoad) — changes while the
// resource is up, so it is where a quiescent clock re-arms: the
// instants skipped since the last tick all saw unchanged state and were
// suppressed updates, and the next instant is the first that can see
// this change.
func (r *Resource) markDirty() {
	r.dirty = true
	if !r.quiescent() {
		return
	}
	r.eng.Metrics.UpdatesSuppressed += r.skip(r.eng.K.Now(), false)
	r.arm()
}

// quiescent reports whether the update clock runs — Run starts it —
// with no tick pending.
func (r *Resource) quiescent() bool { return !r.armed && r.tickFn != nil }

// skip advances the unarmed clock past every instant before t (through
// t when through is set) and returns how many it passed.
func (r *Resource) skip(t sim.Time, through bool) int {
	n := 0
	for r.next < t || (through && r.next == t) {
		r.next += r.tau
		n++
	}
	return n
}

// tick sends one status update unless suppressed. The paper's update
// optimization: when the load did not change significantly since the
// previous update, the update is suppressed; all periodic schemes share
// this behaviour. A tick re-arms the clock only when the next instant
// could send without a state change in between, which is exactly when
// suppression is disabled: otherwise the update just sent (or
// suppressed) leaves a state whose next tick is suppressed until
// markDirty changes it.
func (r *Resource) tick() {
	r.armed = false
	r.next = r.eng.K.Now() + r.tau
	if r.down {
		return
	}
	load := r.Load()
	delta := r.eng.Cfg.Protocol.SuppressDelta
	// Delta 0 disables the update optimization entirely: every tick
	// sends, whether or not anything changed.
	changed := delta <= 0 || (r.dirty && abs(load-r.lastSentLoad) >= delta)
	// A freshly idle resource must still heal the scheduler's
	// optimistic view even when the delta threshold is large.
	if r.dirty && load == 0 && r.lastSentLoad != 0 {
		changed = true
	}
	if !changed {
		r.eng.Metrics.UpdatesSuppressed++
		return
	}
	r.dirty = false
	r.lastSentLoad = load
	r.eng.sendStatusUpdate(r, load)
	if delta <= 0 {
		r.arm()
	}
}

// finishUpdates accounts, at the end of a run, for the update instants
// the lazy clock skipped through now: each was a suppressed update. A
// down resource's skipped instants fall in its outage, where no update
// fires at all.
func (r *Resource) finishUpdates() {
	if !r.down && r.quiescent() {
		r.eng.Metrics.UpdatesSuppressed += r.skip(r.eng.K.Now(), true)
	}
}

// crash destroys the queue and takes the resource down; the engine
// schedules the repair.
func (r *Resource) crash() {
	if r.down {
		return
	}
	lost := len(r.queue)
	if r.running != nil {
		lost++
	}
	r.eng.Metrics.JobsLost += lost
	if r.quiescent() {
		r.eng.Metrics.UpdatesSuppressed += r.skip(r.eng.K.Now(), false)
	}
	r.queue = nil
	r.running = nil
	r.down = true
	r.eng.K.After(r.eng.Cfg.Faults.RepairTime, r.repair)
}

// repair brings the resource back empty and dirty (so the next tick
// reports the fresh state). The instants an unarmed clock skipped since
// the crash fell in the outage and fire no update, so they are passed
// uncounted before markDirty re-arms.
func (r *Resource) repair() {
	r.down = false
	if r.quiescent() {
		r.skip(r.eng.K.Now(), false)
	}
	r.markDirty()
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
