// Package sim provides a deterministic discrete-event simulation kernel.
//
// It replaces the Parsec simulation environment used by the paper: a
// single-threaded event loop with an implicit 4-ary-heap future event
// list, a simulated clock, periodic processes, and named deterministic
// random number streams. Determinism is total: two runs with the same
// seed and the same schedule of calls produce identical event orders,
// because ties in event time are broken by a monotonically increasing
// sequence number.
//
// Events are schedule-and-forget: Schedule, After and Every hand back
// no handle, and a scheduled callback always fires once the clock
// reaches it. A model that must abandon scheduled work checks its own
// state when the callback runs, as the grid's CPU queues do with a
// node's crash epoch.
//
// The kernel is the cost center of the whole reproduction (every figure
// re-runs the grid simulation hundreds of times inside the annealing
// tuner), so its hot path is allocation-free in steady state: the
// future event list is an implicit heap of event values with no
// per-event struct and no interface boxing (see fel.go and DESIGN.md,
// "Kernel performance").
package sim

import (
	"fmt"
	"math"
)

// Time is a point on the simulated clock, in abstract "time units"
// (the paper's unit; e.g. T_CPU = 700 time units).
type Time = float64

// Infinity is a time later than any event the kernel will ever fire.
const Infinity Time = math.MaxFloat64

// Kernel is a discrete-event simulation engine. A Kernel is not safe for
// concurrent use; one simulation runs on one goroutine. Run many Kernels
// in parallel for parameter sweeps.
type Kernel struct {
	now       Time
	seq       uint64
	fel       fel // future event list (fel.go)
	processed uint64
	stopped   bool

	// MaxEvents, when non-zero, bounds the number of events a single
	// Run may process; exceeding it stops the run and sets Overflowed.
	MaxEvents  uint64
	Overflowed bool

	// StallEvents, when non-zero, is the no-progress watchdog: if that
	// many consecutive events execute without the clock advancing, the
	// run stops and Stalled is set. A model bug that schedules work in
	// a zero-delay cycle then fails immediately with a precise trigger
	// instead of spinning to MaxEvents.
	StallEvents uint64
	Stalled     bool

	stallAt  Time   // timestamp the current same-time streak runs at
	stallRun uint64 // events executed at stallAt so far
}

// NewKernel returns a kernel with the clock at zero.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Processed returns the number of events executed so far.
func (k *Kernel) Processed() uint64 { return k.processed }

// Pending returns the number of events in the future event list.
func (k *Kernel) Pending() int { return len(k.fel.ev) }

// Schedule arranges for fn to run at absolute simulated time at.
// Scheduling in the past panics: it is always a model bug. So does a
// NaN time, which compares false against everything and would break
// the FEL's total order (the clock could then run backwards).
//
//lint:hotpath kernel/steady gates Schedule at zero allocations per event in steady state
func (k *Kernel) Schedule(at Time, fn func()) {
	if !(at >= k.now) {
		//lint:allow hotalloc panic path: fires once on a model bug, never in a measured run
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, k.now))
	}
	if fn == nil {
		//lint:allow hotalloc panic path: fires once on a model bug, never in a measured run
		panic("sim: schedule nil func")
	}
	k.fel.push(event{at: at, seq: k.seq, fn: fn})
	k.seq++
}

// After arranges for fn to run d time units from now. Negative delays
// panic.
//
//lint:hotpath every periodic process reschedules through After; kernel/steady gates it at zero allocations
func (k *Kernel) After(d Time, fn func()) {
	if d < 0 {
		//lint:allow hotalloc panic path: fires once on a model bug, never in a measured run
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	k.Schedule(k.now+d, fn)
}

// Every runs fn every period time units, first one period from now,
// for as long as the kernel runs. Each tick is rearmed after fn
// returns, so the next tick is ordered after anything fn schedules for
// the same instant. A non-positive period schedules nothing, which lets
// callers treat "interval = 0" as "off". It is the building block for
// volunteering intervals, estimator digest cycles and audit
// checkpoints.
//
//lint:hotpath kernel/ticker gates the steady tick-rearm cycle at zero allocations per event
func (k *Kernel) Every(period Time, fn func()) {
	if period <= 0 {
		return
	}
	var tick func()
	//lint:allow hotalloc the single reusable rearm closure; paying for it once here is what makes every later tick allocation-free
	tick = func() {
		fn()
		k.After(period, tick)
	}
	k.After(period, tick)
}

// Stop makes the current Run return after the event being processed
// completes. It may be called from inside an event callback.
func (k *Kernel) Stop() { k.stopped = true }

// Step executes the earliest pending event. It returns false when the
// future event list is empty.
//
//lint:hotpath the dispatch loop body; every simulated event passes through it
func (k *Kernel) Step() bool {
	if len(k.fel.ev) == 0 {
		return false
	}
	e := k.fel.pop()
	k.now = e.at
	k.processed++
	k.noteProgress(e.at)
	e.fn()
	return true
}

// noteProgress feeds the no-progress watchdog with the timestamp of the
// next event to execute: it counts consecutive events at the same
// timestamp and trips Stalled when the streak reaches StallEvents.
func (k *Kernel) noteProgress(at Time) {
	if k.StallEvents == 0 {
		return
	}
	if at != k.stallAt || k.stallRun == 0 {
		k.stallAt = at
		k.stallRun = 1
		return
	}
	k.stallRun++
	if k.stallRun >= k.StallEvents {
		k.Stalled = true
		k.stopped = true
	}
}

// Run executes events in time order until the future event list is
// empty, until the next event would fire strictly after the until time,
// until Stop is called, or until MaxEvents is exceeded. It returns the
// number of events executed during this call.
//
//lint:hotpath the bounded dispatch loop; kernel/steady and every engine bench run inside it
func (k *Kernel) Run(until Time) uint64 {
	k.stopped = false
	var n uint64
	for len(k.fel.ev) > 0 && !k.stopped {
		if k.MaxEvents != 0 && k.processed >= k.MaxEvents {
			k.Overflowed = true
			break
		}
		at := k.fel.ev[0].at
		if at > until {
			break
		}
		k.now = at
		k.noteProgress(at)
		if k.Stalled {
			// Watchdog tripped: the offending event stays pending, so a
			// diagnostic dump (NextEventTimes) still shows the work the
			// model was spinning on, and it is not counted as processed.
			break
		}
		e := k.fel.pop()
		k.processed++
		n++
		e.fn()
	}
	if k.Stalled {
		return n
	}
	if k.now < until && (len(k.fel.ev) == 0 || k.fel.ev[0].at > until) {
		// Advance the clock to the horizon so rate-style metrics
		// (work per unit time) are computed over the full window.
		k.now = until
	}
	return n
}

// RunAll executes every pending event regardless of time. Intended for
// tests and drain scenarios; production runs should bound time with Run.
func (k *Kernel) RunAll() uint64 {
	var n uint64
	for k.Step() {
		n++
		if k.Stalled {
			break
		}
		if k.MaxEvents != 0 && k.processed >= k.MaxEvents {
			k.Overflowed = true
			break
		}
	}
	return n
}

// Err reports why the kernel refused to make further progress: a
// tripped no-progress watchdog or an exceeded MaxEvents budget. It
// returns nil after a healthy run.
func (k *Kernel) Err() error {
	switch {
	case k.Stalled:
		return fmt.Errorf("sim: no progress: %d consecutive events at t=%v without the clock advancing (StallEvents=%d)",
			k.stallRun, k.stallAt, k.StallEvents)
	case k.Overflowed:
		return fmt.Errorf("sim: event budget exceeded: %d events processed (MaxEvents=%d)", k.processed, k.MaxEvents)
	}
	return nil
}

// NextEventTimes returns the firing times of up to n earliest pending
// events, in order. It is a diagnostic accessor for post-mortem dumps
// and does not disturb the future event list.
func (k *Kernel) NextEventTimes(n int) []Time {
	times := make([]Time, len(k.fel.ev))
	for i, e := range k.fel.ev {
		times[i] = e.at
	}
	sortTimes(times)
	if len(times) > n {
		times = times[:n]
	}
	return times
}

// sortTimes is a small insertion sort; diagnostic-path only, and it
// keeps the kernel free of a sort import on the hot path.
func sortTimes(ts []Time) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}
