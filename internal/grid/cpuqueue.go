package grid

// workItem is one unit of work a scheduler or estimator CPU accepted:
// the callback to run when it retires and the crash epoch it was
// accepted under. Work whose epoch is stale when it retires died with a
// crash and is dropped.
type workItem struct {
	fn    func()
	epoch int
}

// workQueue is the FIFO of a node's accepted, not yet retired CPU work.
// Its backing array is reused — rewound when the queue drains, slid
// down once the retired prefix outgrows the live items — so
// steady-state queueing allocates nothing.
//
// Each accepted item schedules exactly one retire event at its finish
// time, and the node's retire handler pops the head. That pairing is
// exact because a node's finish times never decrease in acceptance
// order — busyUntil only grows, a crash included — and the kernel breaks
// time ties by scheduling order, so a node's retire events fire in the
// order their items were pushed.
type workQueue struct {
	items []workItem
	head  int
}

// len returns the number of queued items.
func (q *workQueue) len() int { return len(q.items) - q.head }

// push appends w at the tail.
func (q *workQueue) push(w workItem) {
	if q.head > 0 && q.head >= q.len() {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, w)
}

// retire removes the head and runs it unless a crash moved the node
// past the epoch it was accepted under. The caller must know the queue
// is non-empty.
func (q *workQueue) retire(epoch int) {
	w := q.items[q.head]
	q.items[q.head] = workItem{} // drop the closure so the queue never pins model state
	q.head++
	if w.epoch == epoch {
		w.fn()
	}
}
