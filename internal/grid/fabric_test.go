package grid

import (
	"fmt"
	"testing"

	"rmscale/internal/sim"
)

// Message kinds of the recording policy.
const (
	kindProbe = iota + 1
	kindReply
)

// sentMsg is what the recording policy put on the wire under one id.
type sentMsg struct {
	kind, from, to int
}

// recordingPolicy drives every kind of delivery record — protocol
// messages tagged with unique ids, job transfers, dispatches, direct
// status updates and digest shares — and checks each landing against
// what was sent: a record that fired twice, or that was recycled while
// still in flight, delivers an id twice, the wrong message, or a share
// twice or to the wrong scheduler.
type recordingPolicy struct {
	t        *testing.T
	eng      *Engine
	middle   bool
	nextID   int
	sent     map[int]sentMsg
	received map[int]bool
	shares   map[*int]int // first resource id slot of a share -> receiving cluster
	statuses int
	digests  int
	errs     int
}

func newRecordingPolicy(t *testing.T, middleware bool) *recordingPolicy {
	return &recordingPolicy{
		t:        t,
		middle:   middleware,
		sent:     map[int]sentMsg{},
		received: map[int]bool{},
		shares:   map[*int]int{},
	}
}

func (p *recordingPolicy) Name() string         { return "RECORD" }
func (p *recordingPolicy) Central() bool        { return false }
func (p *recordingPolicy) UsesMiddleware() bool { return p.middle }
func (p *recordingPolicy) Attach(e *Engine)     { p.eng = e }

// errorf reports a violation, capping the output of a badly broken run.
func (p *recordingPolicy) errorf(format string, args ...any) {
	p.t.Helper()
	if p.errs++; p.errs <= 10 {
		p.t.Errorf(format, args...)
	}
}

// send puts a fresh tagged message on the wire.
func (p *recordingPolicy) send(s *Scheduler, to, kind int) {
	p.nextID++
	p.sent[p.nextID] = sentMsg{kind: kind, from: s.Cluster(), to: to}
	s.SendPolicy(to, kind, p.nextID)
}

// OnJob moves every third fresh job to a peer and places the rest
// locally, probing the first peer along the way.
func (p *recordingPolicy) OnJob(s *Scheduler, ctx *JobCtx) {
	peers := s.Peers()
	if ctx.Hops == 0 && len(peers) > 0 {
		p.send(s, peers[0], kindProbe)
		if ctx.Job.ID%3 == 0 {
			s.TransferJob(ctx, peers[ctx.Job.ID%len(peers)])
			return
		}
	}
	s.DispatchLeastLoaded(ctx)
}

// OnMessage checks the landing against the send and answers every
// other probe, so replies overlap fresh probes in flight.
func (p *recordingPolicy) OnMessage(s *Scheduler, m *Message) {
	id, ok := m.Payload.(int)
	if !ok {
		p.errorf("message payload %v (%T) is not an id", m.Payload, m.Payload)
		return
	}
	want, ok := p.sent[id]
	switch {
	case !ok:
		p.errorf("message %d was never sent", id)
		return
	case p.received[id]:
		p.errorf("message %d delivered twice", id)
		return
	}
	p.received[id] = true
	got := sentMsg{kind: m.Kind, from: m.From, to: m.To}
	if got != want || s.Cluster() != want.to {
		p.errorf("message %d landed at cluster %d as %+v, sent as %+v", id, s.Cluster(), got, want)
	}
	if m.Kind == kindProbe && id%2 == 0 {
		p.send(s, m.From, kindReply)
	}
}

// OnStatus checks that fresh status belongs to the receiving cluster
// and, for a digest share, that the share lands once, here.
func (p *recordingPolicy) OnStatus(s *Scheduler, updated []int) {
	for i, rid := range updated {
		if p.eng.Map.ResourceCluster[rid] != s.Cluster() {
			p.errorf("cluster %d got status for resource %d of cluster %d", s.Cluster(), rid, p.eng.Map.ResourceCluster[rid])
		}
		if i > 0 && rid < updated[i-1] {
			p.errorf("cluster %d got an unsorted share %v", s.Cluster(), updated)
		}
	}
	if len(updated) == 1 && &updated[0] == &s.oneRid[0] {
		p.statuses++ // a direct update
		return
	}
	p.digests++
	if len(updated) == 0 {
		return // an empty share has no slot of its own to key on
	}
	key := &updated[0]
	if c, dup := p.shares[key]; dup {
		p.errorf("digest share %v landed twice (clusters %d and %d)", updated, c, s.Cluster())
	}
	p.shares[key] = s.Cluster()
}

// OnTick keeps protocol traffic flowing between arrivals.
func (p *recordingPolicy) OnTick(s *Scheduler) {
	if peers := s.Peers(); len(peers) > 0 {
		p.send(s, peers[len(peers)-1], kindProbe)
	}
}

// TestDeliveryRecordsNeverCrossOrRepeat runs the recording policy with
// the fabric under stress — estimator saturation (a flush's CPU time
// exceeds the digest interval, so consecutive digests are in flight
// together), scheduler and estimator crash/repair (a dead estimator's
// resources fall back to direct updates), update loss, and protocol
// message loss with retries — with and without the middleware queue, and
// checks every landing plus the pool itself: a record fired or released
// twice would appear twice in the free list.
func TestDeliveryRecordsNeverCrossOrRepeat(t *testing.T) {
	for _, middleware := range []bool{false, true} {
		t.Run(fmt.Sprintf("middleware=%v", middleware), func(t *testing.T) {
			cfg := testConfig()
			cfg.Spec.Estimators = 3
			cfg.Workload.ArrivalRate *= 2
			cfg.Protocol.SuppressDelta = 0 // every tick sends
			cfg.Enablers.UpdateInterval = 5
			cfg.Protocol.EstimatorInterval = 10
			// 20 resources at one update per 5 time units give an
			// estimator about 13 items per 10-unit digest period; at 4
			// units each its CPU falls ever further behind.
			cfg.Costs.EstimatorPer = 4
			cfg.Faults.UpdateLossProb = 0.1
			cfg.Faults.SchedulerMTBF = 400
			cfg.Faults.SchedulerRepair = 40
			cfg.Faults.EstimatorMTBF = 300
			cfg.Faults.EstimatorRepair = 30
			cfg.Faults.MsgLossProb = 0.15
			cfg.Faults.RetryTimeout = 5
			cfg.Faults.MaxRetries = 2
			p := newRecordingPolicy(t, middleware)
			e, err := New(cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			e.Run()

			m := e.Metrics
			t.Logf("%d messages received of %d sent, %d digest shares, %d direct updates, %d retries, %d abandoned, %d records pooled",
				len(p.received), len(p.sent), p.digests, p.statuses, m.MsgRetries, m.MsgsAbandoned, len(e.free))
			for _, c := range []struct {
				what string
				n    int
			}{
				{"scheduler crashes", m.SchedulerCrashes},
				{"estimator crashes", m.EstimatorCrashes},
				{"lost updates", m.UpdatesLost},
				{"message retries", m.MsgRetries},
				{"abandoned messages", m.MsgsAbandoned},
				{"job transfers", m.JobTransfers},
				{"direct status updates", p.statuses},
				{"digest shares", p.digests},
				{"non-empty digest shares", len(p.shares)},
				{"received messages", len(p.received)},
			} {
				if c.n == 0 {
					t.Errorf("stress run exercised no %s", c.what)
				}
			}
			if lag := e.Estimators[0].QueueDelay(); lag <= sim.Time(cfg.Protocol.EstimatorInterval) {
				t.Errorf("estimator not saturated: CPU lag %v at the end of the run", lag)
			}
			// A dispatch landing twice would run its job twice.
			if m.JobsCompleted+m.JobsLost > m.JobsArrived {
				t.Errorf("%d jobs completed and %d lost of %d arrived", m.JobsCompleted, m.JobsLost, m.JobsArrived)
			}
			seen := map[*delivery]bool{}
			for _, d := range e.free {
				if seen[d] {
					t.Fatalf("record %p is in the free list twice", d)
				}
				seen[d] = true
				if d.kind != 0 || d.sched != nil || d.msg != nil || d.ctx != nil || d.d.parts != nil {
					t.Fatalf("free record %p still holds a payload: %+v", d, *d)
				}
			}
		})
	}
}
