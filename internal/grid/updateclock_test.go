package grid

import (
	"reflect"
	"testing"

	"rmscale/internal/sim"
)

// The status update clock is lazy: a resource keeps a tick event
// pending only while its next update instant could send. These tests
// pin what that must preserve — one sent, suppressed or lost update per
// instant the resource is up, on the instants a periodic ticker would
// fire — against references that step every instant eagerly.

// updateInstants counts every resource's update instants in [0, until]
// by replaying the engine's phase stream: the first instant is the
// resource's phase offset, each next one the previous plus tau, as a
// periodic ticker steps.
func updateInstants(cfg Config, resources int, until sim.Time) int {
	phase := sim.NewSource(cfg.Seed).Stream("phase")
	tau := cfg.Enablers.UpdateInterval
	n := 0
	for r := 0; r < resources; r++ {
		for t := phase.Uniform(0, tau); t <= until; t += tau {
			n++
		}
	}
	return n
}

// shadowClocks arms, before Run, an eager ticker per resource on the
// instants its update clock stands for, and counts the instants at
// which the resource was up and all instants.
func shadowClocks(e *Engine) (up, all *int) {
	up, all = new(int), new(int)
	phase := sim.NewSource(e.Cfg.Seed).Stream("phase")
	tau := e.Cfg.Enablers.UpdateInterval
	for _, r := range e.Resources {
		r := r
		check := func() {
			*all++
			if !r.Down() {
				*up++
			}
		}
		e.K.After(phase.Uniform(0, tau), func() {
			check()
			e.K.Every(tau, check)
		})
	}
	return up, all
}

func newIdleEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := New(cfg, &stubPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.UseJobs(nil); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestUpdateClockIdlePoolLeavesNoResourceEvents(t *testing.T) {
	e := newIdleEngine(t, testConfig())
	e.Run()
	// What stays pending is each scheduler's volunteering ticker; no
	// resource holds an event.
	if got, want := e.K.Pending(), len(e.Schedulers); got != want {
		t.Fatalf("%d events pending after an idle run, want %d (one volunteering tick per scheduler)", got, want)
	}
	if e.Metrics.UpdatesSent != 0 {
		t.Fatalf("idle pool sent %d updates", e.Metrics.UpdatesSent)
	}
}

func TestUpdateClockIdleCountsEveryInstantSuppressed(t *testing.T) {
	cfg := testConfig()
	cfg.Enablers.UpdateInterval = 7 // 500 instants per resource over the window
	e := newIdleEngine(t, cfg)
	e.Run()
	window := cfg.Horizon + cfg.Drain
	want := updateInstants(cfg, len(e.Resources), window)
	if want < 400*len(e.Resources) {
		t.Fatalf("reference counted only %d instants", want)
	}
	if got := e.Metrics.UpdatesSuppressed; got != want {
		t.Fatalf("UpdatesSuppressed = %d, want %d (every instant of an idle pool)", got, want)
	}
}

// TestUpdateClockFinishCountsInstantAtHorizon: the kernel fires events
// at the horizon itself, so an instant landing exactly there is a tick
// the run accounts for.
func TestUpdateClockFinishCountsInstantAtHorizon(t *testing.T) {
	e := newIdleEngine(t, testConfig())
	r := e.Resources[0]
	r.tau, r.next, r.tickFn = 5, 10, r.tick
	e.K.Run(20)
	r.finishUpdates()
	if got := e.Metrics.UpdatesSuppressed; got != 3 {
		t.Fatalf("UpdatesSuppressed = %d, want 3 (instants 10, 15, 20)", got)
	}
}

// TestUpdateClockSkipsOutageInstants: under resource churn, a busy
// pool accounts exactly one update (sent, suppressed or lost) per
// instant the resource is up, and none for instants inside an outage.
func TestUpdateClockSkipsOutageInstants(t *testing.T) {
	for _, idle := range []bool{true, false} {
		cfg := testConfig()
		cfg.Faults.ResourceMTBF = 300
		cfg.Faults.RepairTime = 80
		cfg.Faults.UpdateLossProb = 0.1
		e, err := New(cfg, &stubPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		if idle {
			if err := e.UseJobs(nil); err != nil {
				t.Fatal(err)
			}
		}
		up, all := shadowClocks(e)
		e.Run()
		m := e.Metrics
		if *up == *all {
			t.Fatalf("idle=%v: no update instant fell in an outage; the test needs churn", idle)
		}
		if got := m.UpdatesSent + m.UpdatesSuppressed + m.UpdatesLost; got != *up {
			t.Errorf("idle=%v: sent+suppressed+lost = %d+%d+%d = %d, want %d up instants (of %d)",
				idle, m.UpdatesSent, m.UpdatesSuppressed, m.UpdatesLost, got, *up, *all)
		}
		if idle && m.UpdatesSent+m.UpdatesLost != 0 {
			t.Errorf("idle pool sent %d updates", m.UpdatesSent+m.UpdatesLost)
		}
	}
}

func TestUpdateClockDeltaZeroSendsEveryInstant(t *testing.T) {
	cfg := testConfig()
	cfg.Protocol.SuppressDelta = 0
	e, err := New(cfg, &stubPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	want := updateInstants(cfg, len(e.Resources), cfg.Horizon+cfg.Drain)
	if e.Metrics.UpdatesSuppressed != 0 || e.Metrics.UpdatesSent != want {
		t.Fatalf("sent=%d suppressed=%d, want every one of %d instants sent",
			e.Metrics.UpdatesSent, e.Metrics.UpdatesSuppressed, want)
	}
}

// TestSchedulerCrashDropsQueuedWorkKeepsFIFO: work a scheduler accepted
// before a crash never runs, and work accepted after the repair — which
// queues behind the dead items, since the CPU's busy chain survives the
// crash — retires in acceptance order, zero-cost items included.
func TestSchedulerCrashDropsQueuedWorkKeepsFIFO(t *testing.T) {
	e, err := New(testConfig(), &stubPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ArmFaults(); err != nil {
		t.Fatal(err)
	}
	s := e.Schedulers[0]
	unit := e.Cfg.Costs.SchedulerSpeed // one time unit of CPU
	type retired struct {
		name string
		at   sim.Time
	}
	var got []retired
	rec := func(name string) func() {
		return func() { got = append(got, retired{name, e.K.Now()}) }
	}
	e.K.Schedule(10, func() {
		s.Exec(4*unit, rec("a")) // retires at 14
		s.Exec(4*unit, rec("b")) // would retire at 18
		s.Exec(0, rec("c"))      // would retire at 18, after b
	})
	e.K.Schedule(15, func() { e.crashScheduler(s, 1) })
	e.K.Schedule(16, func() {
		e.repairScheduler(s)
		s.Exec(unit, rec("d"))   // queues behind the dead b, c: 19
		s.Exec(0, rec("e"))      // 19, after d
		s.Exec(2*unit, rec("f")) // 21
	})
	e.K.Run(100)
	want := []retired{{"a", 14}, {"d", 19}, {"e", 19}, {"f", 21}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("retired %v, want %v", got, want)
	}
	if n := s.work.len(); n != 0 {
		t.Fatalf("%d work items left queued", n)
	}
}
