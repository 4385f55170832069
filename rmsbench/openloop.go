package main

import (
	"math/rand"
	"sync"
	"time"
)

// clock is the open-loop generator's time source; tests substitute a
// fake one.
type clock interface {
	now() time.Duration
	sleepUntil(t time.Duration)
}

type wallClock struct{ epoch time.Time }

func (c wallClock) now() time.Duration { return time.Since(c.epoch) }

func (c wallClock) sleepUntil(t time.Duration) {
	if d := t - c.now(); d > 0 {
		time.Sleep(d)
	}
}

// poissonSchedule returns arrival offsets of a Poisson process of the
// given rate (per second) inside [0, window).
func poissonSchedule(rng *rand.Rand, rate float64, window time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= window {
			return out
		}
		out = append(out, d)
	}
}

// arrival is the outcome of one scheduled request.
type arrival struct {
	Due, Start, End time.Duration
	Err             error
}

// Late is how far behind its schedule the generator sent the request.
func (a arrival) Late() time.Duration { return a.Start - a.Due }

// Latency counts from when the request was due, so a stall charges its
// wait to every request queued behind it.
func (a arrival) Latency() time.Duration { return a.End - a.Due }

// runOpenLoop sends the i-th request at due[i] regardless of how
// earlier ones fare, over conns concurrent senders. A request whose
// due time passes while every sender is busy goes out as soon as one
// frees up, and the delay shows as lateness.
func runOpenLoop(c clock, due []time.Duration, conns int, do func(i int) error) []arrival {
	out := make([]arrival, len(due))
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	wg.Add(conns)
	for w := 0; w < conns; w++ {
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(due) {
					return
				}
				c.sleepUntil(due[i])
				start := c.now()
				err := do(i)
				out[i] = arrival{Due: due[i], Start: start, End: c.now(), Err: err}
			}
		}()
	}
	wg.Wait()
	return out
}
