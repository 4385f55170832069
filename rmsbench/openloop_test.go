package main

import (
	"io"
	"math/rand"
	"os"
	"testing"
	"time"
)

// fakeClock advances only when the generator sleeps or an operation
// "takes" time, so lateness is exact.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration { return c.t }

func (c *fakeClock) sleepUntil(t time.Duration) {
	if t > c.t {
		c.t = t
	}
}

// A request is timed from when it was due: a slow request delays the
// ones queued behind it, and that wait shows both as generator lateness
// and in their latency.
func TestOpenLoopLatenessOnFakeClock(t *testing.T) {
	ms := time.Millisecond
	c := &fakeClock{}
	due := []time.Duration{0, 1 * ms, 2 * ms, 20 * ms}
	cost := []time.Duration{5 * ms, 1 * ms, 1 * ms, 1 * ms}
	got := runOpenLoop(c, due, 1, func(i int) error {
		c.t += cost[i]
		return nil
	})
	want := []struct{ late, latency time.Duration }{
		{0, 5 * ms},
		{4 * ms, 5 * ms}, // sent at 5, done at 6
		{4 * ms, 5 * ms}, // sent at 6, done at 7
		{0, 1 * ms},      // the generator caught up before it was due
	}
	for i, w := range want {
		if got[i].Late() != w.late || got[i].Latency() != w.latency {
			t.Errorf("request %d: late %v latency %v, want %v %v", i, got[i].Late(), got[i].Latency(), w.late, w.latency)
		}
	}
}

func TestPoissonScheduleIsSeededAndBounded(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(7)), 100, 10*time.Second)
	b := poissonSchedule(rand.New(rand.NewSource(7)), 100, 10*time.Second)
	if len(a) != len(b) || len(a) < 900 || len(a) > 1100 {
		t.Fatalf("got %d and %d arrivals, want the same count near 1000", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] || a[i] >= 10*time.Second || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("arrival %d: %v vs %v, want identical, ordered and inside the window", i, a[i], b[i])
		}
	}
}

// The mix's inputs derive from the seed alone, with the fresh share
// exact and fresh specs never among the stored ones.
func TestPlanMix(t *testing.T) {
	p := planMix(3, 5*time.Second, 0)
	q := planMix(3, 5*time.Second, 0)
	stored := make(map[string]bool)
	for i := 0; i < daemonStored; i++ {
		id, _ := storedSpec(3, i).ID()
		stored[id] = true
	}
	nFresh := 0
	for i := range p.specs {
		if p.specs[i] != q.specs[i] || p.fresh[i] != q.fresh[i] || p.due[i] != q.due[i] {
			t.Fatalf("arrival %d differs between two plans of one seed", i)
		}
		id, _ := p.specs[i].ID()
		if p.fresh[i] == stored[id] {
			t.Errorf("arrival %d: fresh=%v but stored=%v", i, p.fresh[i], stored[id])
		}
		if p.fresh[i] {
			nFresh++
		}
	}
	if want := int(float64(len(p.specs))*daemonFreshShare + 0.5); nFresh != want {
		t.Errorf("%d fresh arrivals, want %d", nFresh, want)
	}
}

// A short traced daemon-mix run: both windows pass their checks, the
// replay reproduces every served payload, and the wrapped seams report
// from the daemon's goroutines without races (run with -race).
func TestDaemonMixTracedShort(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil { // the span file goes under the run's directory
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	res, err := runDaemonMix(options{workload: "daemon-mix", seed: 3, seconds: 1, trace: true}, dir, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("result %+v", res)
	}
	for _, m := range perLayer {
		if _, ok := res.Metrics[m.name]; !ok {
			t.Errorf("traced result lacks %s", m.name)
		}
	}
	if res.Metrics["replay.sims"].Value == 0 {
		t.Error("the replay ran no simulations")
	}
}
