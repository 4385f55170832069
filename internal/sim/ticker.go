package sim

// Ticker fires a callback at a fixed simulated period until stopped or
// until the kernel runs out of horizon. It is the building block for
// volunteering intervals, estimator digest cycles and audit
// checkpoints.
type Ticker struct {
	k      *Kernel
	period Time
	fn     func()
	tick   func() // single reusable rearm closure; see NewTicker
	ev     *Event
	done   bool
}

// NewTicker schedules fn every period time units, first firing one period
// from now. A non-positive period returns a stopped ticker (the process
// is disabled), which lets callers treat "interval = 0" as "off".
//
// The rearm closure is built once here: with the kernel's event free
// list warm, every subsequent tick reschedules with zero heap
// allocations — every estimator and scheduler of a grid run carries a
// ticker.
//
//lint:hotpath kernel/ticker gates the steady tick-rearm cycle at zero allocations per event
func NewTicker(k *Kernel, period Time, fn func()) *Ticker {
	//lint:allow hotalloc one-time construction: the ticker struct is allocated once per periodic process
	t := &Ticker{k: k, period: period, fn: fn}
	//lint:allow hotalloc the single reusable rearm closure; paying for it once here is what makes every later tick allocation-free
	t.tick = func() {
		if t.done {
			return
		}
		// The firing event retires when this callback returns; drop the
		// handle so neither fn nor a later Stop can cancel its recycled
		// successor.
		t.ev = nil
		t.fn()
		// fn may have stopped the ticker, or re-armed it through Reset;
		// either way this firing must not arm another event.
		if !t.done && t.ev == nil {
			t.arm()
		}
	}
	if period <= 0 {
		t.done = true
		return t
	}
	t.arm()
	return t
}

func (t *Ticker) arm() {
	t.ev = t.k.After(t.period, t.tick)
}

// Stop cancels the ticker. It is safe to call repeatedly and from within
// the tick callback.
func (t *Ticker) Stop() {
	t.done = true
	if t.ev != nil {
		t.k.Cancel(t.ev)
		// The cancelled event's struct will be recycled; a retained
		// handle must not outlive it (see Event's lifetime note).
		t.ev = nil
	}
}

// Stopped reports whether the ticker has been stopped or was created
// disabled.
func (t *Ticker) Stopped() bool { return t.done }

// Period returns the configured period.
func (t *Ticker) Period() Time { return t.period }

// Reset stops the ticker and restarts it with a new period, firing one
// new period from now. A non-positive period leaves it stopped. It is
// safe to call from within the tick callback.
func (t *Ticker) Reset(period Time) {
	t.Stop()
	t.period = period
	if period > 0 {
		t.done = false
		t.arm()
	}
}
