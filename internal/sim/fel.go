package sim

// This file is the kernel's future event list: a 4-ary implicit
// min-heap of event values ordered by (time, sequence).
//
// Why not container/heap: the interface-based heap routes every push
// and pop through heap.Interface method calls and `any` conversions on
// the hottest path of the whole reproduction (every figure re-runs the
// grid simulation hundreds of times inside the per-k tuner). The
// implicit 4-ary layout halves the tree depth of a binary heap and
// compiles to direct slice indexing with no boxing. Storing events by
// value, rather than as pointers to recycled structs, means scheduling
// allocates nothing once the backing array has grown to the run's peak
// population, and no handle can outlive the event it names.
//
// Fire-order invariance: (time, sequence) is a total order over events,
// so the pop sequence of any correct min-heap over the same event set
// is identical regardless of internal array layout. The heap's arity
// and storage are therefore behaviour-invisible; the golden outputs and
// chaos fingerprints pin this.

// event is one scheduled callback.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

// before orders events by (time, sequence) — the kernel's total order.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// fel is the future event list.
type fel struct {
	ev []event
}

// push inserts e, sifting it up to its (time, sequence) position.
func (f *fel) push(e event) {
	i := len(f.ev)
	f.ev = append(f.ev, e)
	for i > 0 {
		p := (i - 1) >> 2
		if !e.before(&f.ev[p]) {
			break
		}
		f.ev[i] = f.ev[p]
		i = p
	}
	f.ev[i] = e
}

// pop removes and returns the earliest event. The caller must know the
// list is non-empty. The vacated slot is zeroed so the heap's spare
// capacity never pins a fired callback's closure.
func (f *fel) pop() event {
	root := f.ev[0]
	n := len(f.ev) - 1
	last := f.ev[n]
	f.ev[n] = event{}
	f.ev = f.ev[:n]
	if n > 0 {
		f.siftDown(last, 0)
	}
	return root
}

// siftDown places e at index i, walking it down past smaller children.
func (f *fel) siftDown(e event, i int) {
	n := len(f.ev)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m, end := c, min(c+4, n)
		for j := c + 1; j < end; j++ {
			if f.ev[j].before(&f.ev[m]) {
				m = j
			}
		}
		if !f.ev[m].before(&e) {
			break
		}
		f.ev[i] = f.ev[m]
		i = m
	}
	f.ev[i] = e
}
