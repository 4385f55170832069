package sim

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestKernelStartsAtZero(t *testing.T) {
	k := NewKernel()
	if k.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", k.Now())
	}
	if k.Processed() != 0 {
		t.Fatalf("Processed() = %v, want 0", k.Processed())
	}
}

func TestScheduleAndRunOrder(t *testing.T) {
	k := NewKernel()
	var got []float64
	for _, at := range []Time{5, 1, 3, 2, 4} {
		at := at
		k.Schedule(at, func() { got = append(got, at) })
	}
	n := k.Run(10)
	if n != 5 {
		t.Fatalf("Run executed %d events, want 5", n)
	}
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("events fired out of order: %v", got)
	}
}

func TestFIFOTieBreak(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		k.Schedule(7, func() { got = append(got, i) })
	}
	k.Run(10)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events fired out of FIFO order at %d: %v", i, got[:i+1])
		}
	}
}

func TestAfterUsesRelativeDelay(t *testing.T) {
	k := NewKernel()
	var at Time = -1
	k.Schedule(10, func() {
		k.After(5, func() { at = k.Now() })
	})
	k.Run(100)
	if at != 15 {
		t.Fatalf("After(5) from t=10 fired at %v, want 15", at)
	}
}

func TestRunStopsAtHorizon(t *testing.T) {
	k := NewKernel()
	fired := false
	k.Schedule(50, func() { fired = true })
	k.Run(49)
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if k.Now() != 49 {
		t.Fatalf("clock = %v, want horizon 49", k.Now())
	}
	k.Run(51)
	if !fired {
		t.Fatal("event within extended horizon did not fire")
	}
}

func TestClockAdvancesToHorizonWhenIdle(t *testing.T) {
	k := NewKernel()
	k.Run(1000)
	if k.Now() != 1000 {
		t.Fatalf("idle run left clock at %v, want 1000", k.Now())
	}
}

func TestStopFromEvent(t *testing.T) {
	k := NewKernel()
	count := 0
	for i := 1; i <= 10; i++ {
		k.Schedule(Time(i), func() {
			count++
			if count == 3 {
				k.Stop()
			}
		})
	}
	k.Run(100)
	if count != 3 {
		t.Fatalf("Stop did not halt run: %d events fired, want 3", count)
	}
	// A later Run resumes.
	k.Run(100)
	if count != 10 {
		t.Fatalf("resumed run fired %d total, want 10", count)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	k := NewKernel()
	k.Schedule(10, func() {})
	k.Run(20)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	k.Schedule(5, func() {})
}

// A NaN time compares false against everything, so a "before now"
// check written as at < now lets it into the FEL, where it breaks the
// heap order: scheduling {3, NaN, 1, 2, 0.5, 4} used to fire 0.5, 4,
// 1, 2, 3, NaN, running the clock backwards. Both entry points must
// reject it, and the events already scheduled must still fire in order.
func TestScheduleNaNPanics(t *testing.T) {
	k := NewKernel()
	var fired []Time
	for _, at := range []Time{3, 1, 2, 0.5, 4} {
		at := at
		k.Schedule(at, func() { fired = append(fired, at) })
	}
	for _, c := range []struct {
		name     string
		schedule func()
	}{
		{"Schedule", func() { k.Schedule(Time(math.NaN()), func() {}) }},
		{"After", func() { k.After(Time(math.NaN()), func() {}) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(NaN) did not panic", c.name)
				}
			}()
			c.schedule()
		}()
	}
	k.RunAll()
	want := []Time{0.5, 1, 2, 3, 4}
	if !slices.Equal(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
}

func TestNegativeAfterPanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Fatal("After(-1) did not panic")
		}
	}()
	k.After(-1, func() {})
}

func TestNilFuncPanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule(nil) did not panic")
		}
	}()
	k.Schedule(1, nil)
}

func TestMaxEvents(t *testing.T) {
	k := NewKernel()
	k.MaxEvents = 5
	var reschedule func()
	reschedule = func() { k.After(1, reschedule) }
	k.After(1, reschedule)
	k.Run(Infinity)
	if !k.Overflowed {
		t.Fatal("runaway simulation did not set Overflowed")
	}
	if k.Processed() != 5 {
		t.Fatalf("processed %d events, want 5", k.Processed())
	}
}

func TestStepDrainsInOrder(t *testing.T) {
	k := NewKernel()
	var got []Time
	for _, at := range []Time{3, 1, 2} {
		at := at
		k.Schedule(at, func() { got = append(got, at) })
	}
	steps := 0
	for k.Step() {
		steps++
	}
	if steps != 3 {
		t.Fatalf("Step drained %d events, want 3", steps)
	}
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("Step fired out of order: %v", got)
	}
}

func TestPendingCountsLiveEvents(t *testing.T) {
	k := NewKernel()
	k.Schedule(1, func() {})
	k.Schedule(2, func() {})
	k.Every(5, func() {})
	if got := k.Pending(); got != 3 {
		t.Fatalf("Pending() = %d after three schedules, want 3", got)
	}
	k.Run(1)
	if got := k.Pending(); got != 2 {
		t.Fatalf("Pending() = %d after one fired, want 2", got)
	}
	// The one-shots are gone; the ticker always keeps its next tick armed.
	k.Run(20)
	if got := k.Pending(); got != 1 {
		t.Fatalf("Pending() = %d with only the ticker left, want 1", got)
	}
}

func TestRunAll(t *testing.T) {
	k := NewKernel()
	count := 0
	k.Schedule(1e12, func() { count++ })
	k.Schedule(1, func() { count++ })
	if n := k.RunAll(); n != 2 || count != 2 {
		t.Fatalf("RunAll ran %d events (count %d), want 2", n, count)
	}
}

// Property: any batch of events fires in nondecreasing time order, and
// every event within the horizon fires exactly once.
func TestEventOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		k := NewKernel()
		var fired []Time
		for _, r := range raw {
			at := Time(r % 1000)
			k.Schedule(at, func() { fired = append(fired, at) })
		}
		k.Run(Infinity)
		if len(fired) != len(raw) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: nested scheduling (events scheduling events) still respects
// global time order.
func TestNestedSchedulingProperty(t *testing.T) {
	f := func(delays []uint8) bool {
		k := NewKernel()
		last := Time(math.Inf(-1))
		ok := true
		var chain func(i int)
		chain = func(i int) {
			if k.Now() < last {
				ok = false
			}
			last = k.Now()
			if i < len(delays) {
				k.After(Time(delays[i]), func() { chain(i + 1) })
			}
		}
		k.After(0, func() { chain(0) })
		k.Run(Infinity)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkKernelScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := NewKernel()
		for j := 0; j < 1000; j++ {
			k.Schedule(Time(j%97), func() {})
		}
		k.Run(Infinity)
	}
}

func BenchmarkKernelSelfReschedule(b *testing.B) {
	k := NewKernel()
	n := 0
	var f func()
	f = func() {
		n++
		if n < b.N {
			k.After(1, f)
		}
	}
	b.ResetTimer()
	k.After(1, f)
	k.Run(Infinity)
}
