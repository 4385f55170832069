package grid

import (
	"rmscale/internal/sim"
)

// statusItem is one resource status update: the resource, its load and
// the time the resource sent it. Estimators buffer and digest them;
// deliveries and work items carry them by value.
type statusItem struct {
	rid  int
	load float64
	at   sim.Time
}

// Estimator is an RMS node that receives status updates from a
// partition of the resource pool and distributes them to the scheduling
// decision makers (the paper's Case 3 scaling variable). Resources are
// assigned round-robin, so every estimator typically covers every
// cluster; each digest interval it flushes one digest per covered
// cluster. Estimator CPU time counts into G like scheduler time.
type Estimator struct {
	id   int
	node int
	eng  *Engine

	busyUntil sim.Time
	// buffer[cluster] holds updates pending digestion for that
	// cluster's scheduler. The slices are retained and reused across
	// digest cycles, so a steady-state flush allocates only the digest
	// snapshot it broadcasts.
	buffer [][]statusItem

	// work is the CPU's FIFO of accepted work; retire is the bound
	// retireNext every accepted item schedules, built once.
	work   workQueue
	retire func()

	// Fault state (see faults.go): a crash empties the buffer and the
	// epoch bump destroys queued CPU work.
	down  bool
	epoch int
}

// ID returns the estimator index.
func (e *Estimator) ID() int { return e.id }

// Node returns the estimator's topology node.
func (e *Estimator) Node() int { return e.node }

// exec serializes work through the estimator CPU, charging G. A dead
// estimator retires no work, and work queued before a crash dies with
// it (the epoch check in retireNext).
func (e *Estimator) exec(cost float64, w *workItem) {
	if e.down {
		return
	}
	busy := cost / e.eng.Cfg.Costs.SchedulerSpeed
	e.eng.Metrics.chargeEstimator(e.id, cost, busy)
	now := e.eng.K.Now()
	start := e.busyUntil
	if start < now {
		start = now
	}
	finish := start + busy
	e.busyUntil = finish
	w.epoch = e.epoch
	e.work.push(w)
	e.eng.K.Schedule(finish, e.retire)
}

// retireNext retires the oldest accepted work item: an ingested update
// joins its cluster's buffer, a flushed digest fans out.
//
//lint:hotpath every status update the estimator layer ingests retires here; engine/*/allocs_per_event budgets it
func (e *Estimator) retireNext() {
	w := e.work.front()
	if w.epoch != e.epoch {
		e.work.drop()
		return
	}
	switch w.kind {
	case workIngest:
		st := w.status
		e.work.drop()
		c := e.eng.Map.ResourceCluster[st.rid]
		e.buffer[c] = append(e.buffer[c], st)
	case workBroadcast:
		dg := w.d
		e.work.drop()
		e.eng.broadcastDigest(e, dg)
	}
}

// QueueDelay reports how far behind the estimator's CPU currently is.
func (e *Estimator) QueueDelay() sim.Time {
	d := e.busyUntil - e.eng.K.Now()
	if d < 0 {
		return 0
	}
	return d
}

// digest is one estimator flush: parts holds its status items grouped
// by destination cluster in cluster order, each group sorted by (rid,
// time), and rids mirrors parts entry-for-entry so a delivery can hand
// the policy its OnStatus id list without building one. The whole
// digest is one immutable snapshot shared by every scheduler's
// delivery; receivers read it, never mutate it. One cluster's share of
// it is itself a digest, holding that cluster's group only.
type digest struct {
	parts []statusItem
	rids  []int
}

// total returns the number of status items across all clusters.
func (d digest) total() int { return len(d.parts) }

// split cuts cluster c's share off the front of the digest and returns
// it with the rest. clusterOf maps a resource id to its cluster. Cut in
// cluster order, each share is the group at the front: the groups of
// the clusters before c are already gone.
func (d digest) split(clusterOf []int, c int) (share, rest digest) {
	n := 0
	for n < len(d.parts) && clusterOf[d.parts[n].rid] == c {
		n++
	}
	return digest{parts: d.parts[:n], rids: d.rids[:n]}, digest{parts: d.parts[n:], rids: d.rids[n:]}
}

// flush distributes the buffered status to the scheduling decision
// makers: one digest, broadcast to every scheduler, per digest interval
// (the UpdateInterval enabler). This is the paper's estimator role —
// "receive the status updates from RP resources and distribute to the
// scheduling decision makers" — and it is why scaling up the estimator
// layer multiplies the digest traffic every scheduler must process.
//
// The buffered items are snapshotted into freshly allocated backing
// arrays per flush (cluster by cluster, each group sorted). Fresh,
// not scratch: the broadcast and the per-scheduler deliveries run at
// later simulated times, and under estimator saturation a delivery
// can outlive the next flush, so reusing a buffer here would
// corrupt an in-flight digest. Per-cluster sorting yields exactly the
// items a global (rid, time) sort would hand each cluster, because a
// resource id maps to a single cluster.
func (e *Estimator) flush() {
	if e.down {
		return
	}
	total := 0
	for _, items := range e.buffer {
		total += len(items)
	}
	parts := make([]statusItem, 0, total)
	for c := range e.buffer {
		sortStatusItems(e.buffer[c])
		parts = append(parts, e.buffer[c]...)
		e.buffer[c] = e.buffer[c][:0]
	}
	rids := make([]int, len(parts))
	for i := range parts {
		rids[i] = parts[i].rid
	}
	// An empty digest is still broadcast: it doubles as the
	// dissemination heartbeat every decision maker consumes, so the
	// layer's traffic scales with the estimator count, not with the
	// update volume.
	w := workItem{kind: workBroadcast, d: digest{parts: parts, rids: rids}}
	e.exec(e.eng.Cfg.Costs.EstimatorPer*float64(total), &w)
}

// sortStatusItems orders a digest partition by (resource id, time) so
// broadcast content is independent of buffering order.
func sortStatusItems(items []statusItem) {
	for i := 1; i < len(items); i++ {
		for j := i; j > 0 && less(items[j], items[j-1]); j-- {
			items[j], items[j-1] = items[j-1], items[j]
		}
	}
}

func less(a, b statusItem) bool {
	if a.rid != b.rid {
		return a.rid < b.rid
	}
	return a.at < b.at
}

// startDigests arms the periodic digest flush with a phase offset.
func (e *Estimator) startDigests(interval float64, phase *sim.Stream) {
	offset := phase.Uniform(0, interval)
	e.eng.K.After(offset, func() {
		e.flush()
		e.eng.K.Every(interval, e.flush)
	})
}
