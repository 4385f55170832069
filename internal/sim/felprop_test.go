package sim

import (
	"fmt"
	"testing"
)

// Differential test of the future event list: the kernel (implicit
// 4-ary value heap) is driven alongside a trivially correct reference
// model — a flat slice popped by linear scan for the minimum (time,
// insertion order) — through long seeded sequences of schedules,
// self-rescheduling events, tickers and steps. Any divergence in fire
// order, fire count or pending count fails. The sequence deliberately
// produces timestamp ties (seq tie-breaking), zero-delay reschedules
// from inside a firing callback, and enough reschedule churn that the
// heap shrinks and regrows through its backing array many times.

// felRec mirrors one scheduled event in the reference model. Records
// are appended in schedule order, which is also sequence order, so the
// first record with the minimum time among pending records is exactly
// the kernel's (time, seq) minimum.
type felRec struct {
	at    Time
	fired bool
	plain bool // scheduled by the test, not a ticker's rearm
}

// refNext returns the index of the record the reference model says
// fires next, or -1 when none are pending.
func refNext(all []*felRec) int {
	best := -1
	for i, r := range all {
		if r.fired {
			continue
		}
		if best == -1 || r.at < all[best].at {
			best = i
		}
	}
	return best
}

// refPending counts the records still to fire; with plainOnly it skips
// the tickers' next ticks, which are always pending.
func refPending(all []*felRec, plainOnly bool) int {
	n := 0
	for _, r := range all {
		if !r.fired && (r.plain || !plainOnly) {
			n++
		}
	}
	return n
}

func TestFELDifferentialAgainstSortedSlice(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 17, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runFELDifferential(t, seed)
		})
	}
}

func runFELDifferential(t *testing.T, seed int64) {
	rng := NewSource(seed).Stream("felprop")
	k := NewKernel()
	var all []*felRec
	lastFired := -1
	// schedule adds a one-shot event at at; when it fires it schedules
	// a follow-up again delays later, for each delay in again.
	var schedule func(at Time, again []Time)
	schedule = func(at Time, again []Time) {
		id := len(all)
		all = append(all, &felRec{at: at, plain: true})
		k.Schedule(at, func() {
			all[id].fired = true
			lastFired = id
			if len(again) > 0 {
				schedule(k.Now()+again[0], again[1:])
			}
		})
	}
	// ticker starts a periodic process; each tick retires its record
	// and records the rearm the kernel schedules after the callback.
	tickers := 0
	ticker := func(period Time) {
		tickers++
		id := len(all)
		all = append(all, &felRec{at: k.Now() + period})
		k.Every(period, func() {
			all[id].fired = true
			lastFired = id
			id = len(all)
			all = append(all, &felRec{at: k.Now() + period})
		})
	}
	step := func() {
		want := refNext(all)
		if !k.Step() {
			if want != -1 {
				t.Fatalf("kernel empty but reference expects event %d at t=%v", want, all[want].at)
			}
			return
		}
		if lastFired != want {
			t.Fatalf("fired event %d (t=%v), reference expects %d (t=%v)",
				lastFired, all[lastFired].at, want, all[want].at)
		}
	}

	const ops = 6000
	for op := 0; op < ops; op++ {
		switch x := rng.Float64(); {
		case x < 0.40:
			// Schedule; one third of the time at an existing pending
			// timestamp to force (time, seq) tie-breaking.
			at := k.Now() + rng.Float64()*10
			if len(all) > 0 && rng.Float64() < 0.33 {
				if r := all[rng.Intn(len(all))]; !r.fired {
					at = r.at
				}
			}
			schedule(at, nil)
		case x < 0.55:
			// Reschedule churn: an event that, each time it fires,
			// schedules its successor — a third of the time with zero
			// delay, a tie at the firing instant.
			again := make([]Time, rng.Intn(5))
			for i := range again {
				if rng.Float64() >= 0.33 {
					again[i] = rng.Float64() * 10
				}
			}
			schedule(k.Now()+rng.Float64()*10, again)
		case x < 0.56 && tickers < 4:
			ticker(Time(1 + rng.Intn(8)))
		default:
			step()
		}
		if got, want := k.Pending(), refPending(all, false); got != want {
			t.Fatalf("op %d: Pending() = %d, reference has %d pending events", op, got, want)
		}
	}
	// Drain: the remaining fire order must match the reference exactly
	// until every one-shot has fired; the tickers never run dry.
	for refPending(all, true) > 0 {
		step()
	}
	if got, want := k.Pending(), tickers; got != want {
		t.Fatalf("Pending() = %d after the drain, want one per ticker (%d)", got, want)
	}
	if err := k.Err(); err != nil {
		t.Fatalf("kernel unhealthy after drain: %v", err)
	}
}
