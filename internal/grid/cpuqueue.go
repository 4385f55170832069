package grid

// workKind says what a CPU work item does when it retires. Every kind
// but workFn carries its data in the item's typed fields, so the engine
// queues its own work without allocating a closure; workFn runs the
// caller's fn and backs the policy-facing Exec/ExecDecision.
type workKind uint8

const (
	workFn workKind = iota // run fn

	// Scheduler work.
	workStatus   // merge one direct status update (status), then OnStatus
	workDigest   // merge a digest share (d), then OnStatus with its ids
	workSend     // put a policy message on the wire: deliverPolicy(to, tag, payload)
	workTransfer // put a job envelope on the wire: transferJob(ctx, to)
	workMsg      // hand an arrived protocol message (msg) to OnMessage
	workJob      // hand a transferred job envelope (ctx) to OnJob
	workDecide   // DispatchLeastLoaded's decision for ctx

	// Estimator work.
	workIngest    // buffer one status update (status)
	workBroadcast // fan a flushed digest (d) out to every scheduler
)

// workItem is one unit of work a scheduler or estimator CPU accepted:
// what to do when it retires, the data to do it with, and the crash
// epoch it was accepted under. Work whose epoch is stale when it
// retires died with a crash and is dropped.
type workItem struct {
	kind  workKind
	epoch int

	fn      func()     // workFn
	ctx     *JobCtx    // workTransfer, workJob, workDecide
	msg     *Message   // workMsg
	payload any        // workSend
	to, tag int        // workSend (tag is the message kind), workTransfer
	status  statusItem // workStatus, workIngest
	d       digest     // workDigest (one cluster's share), workBroadcast
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

// push appends a copy of *w at the tail. Items are large, so they
// travel by pointer and are copied once, into the queue.
func (q *workQueue) push(w *workItem) {
	if q.head > 0 && q.head >= q.len() {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, *w)
}

// front returns the oldest item. The caller must know the queue is
// non-empty, and must copy out what it needs and drop the item before
// anything can push: a push may move the queue's items.
func (q *workQueue) front() *workItem { return &q.items[q.head] }

// drop removes the oldest item, clearing its slot so the queue never
// pins model state.
func (q *workQueue) drop() {
	q.items[q.head] = workItem{}
	q.head++
}
