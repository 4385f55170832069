package main

import (
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"rmscale/internal/audit"
	"rmscale/internal/experiments"
	"rmscale/internal/grid"
	"rmscale/internal/rms"
	"rmscale/internal/routing"
	"rmscale/internal/runner"
	"rmscale/internal/scale"
)

// The replay re-runs every tuned (model, k) point of a traced sweep
// through the public grid, routing, audit and runner calls, timing each
// call. Its configs mirror internal/experiments/cases.go for cases 1
// and 3; the fidelity check (each point's averaged Observation must come
// back bit for bit) fails the run if the mirror drifts.

// meanRuntime mirrors experiments' analytic mean job runtime.
const meanRuntime = 524.2

func mirrorSizes(fid experiments.Fidelity) (c1Clusters, c1Size, fixClusters, fixSize int) {
	switch fid {
	case experiments.Smoke:
		return 4, 6, 8, 6
	case experiments.Quick:
		return 6, 8, 24, 10
	default:
		return 10, 10, 40, 10
	}
}

func mirrorHorizon(fid experiments.Fidelity) (h, drain float64) {
	switch fid {
	case experiments.Smoke:
		return 1200, 1800
	case experiments.Quick:
		return 2000, 2500
	default:
		return 2500, 2500
	}
}

func mirrorReplicas(fid experiments.Fidelity) int {
	if fid == experiments.Smoke {
		return 1
	}
	return 2
}

func mirrorBase(fid experiments.Fidelity, seed int64, clusters, clusterSize, baseClusters int, util float64) grid.Config {
	cfg := grid.DefaultConfig()
	cfg.Seed = seed
	cfg.Spec.Clusters = clusters
	cfg.Spec.ClusterSize = clusterSize
	cfg.Spec.Estimators = 0
	h, drain := mirrorHorizon(fid)
	cfg.Horizon = h
	cfg.Drain = drain
	cfg.Workload.Clusters = clusters
	cfg.Workload.Horizon = h
	cfg.Workload.ArrivalRate = util * float64(clusters*clusterSize) / meanRuntime
	cfg.Protocol.MiddlewareTime = 6.0 / float64(baseClusters)
	if fid == experiments.Full {
		cfg.Costs.SchedulerSpeed = 1.4
	}
	return cfg
}

// mirrorConfig is the grid config of case id at scale k with the tuned
// enablers x applied.
func mirrorConfig(id int, fid experiments.Fidelity, seed int64, k int, x []float64) (grid.Config, error) {
	c1c, c1s, fc, fs := mirrorSizes(fid)
	var cfg grid.Config
	switch id {
	case 1:
		cfg = mirrorBase(fid, seed, c1c*k, c1s, c1c, 0.90)
	case 3:
		baseEst := max(fc/5, 1)
		cfg = mirrorBase(fid, seed, fc, fs, fc, 0.15)
		cfg.Spec.Estimators = baseEst * k
		cfg.Workload.ArrivalRate *= float64(k)
	default:
		return grid.Config{}, fmt.Errorf("replay mirrors cases 1 and 3, not %d", id)
	}
	cfg.Enablers.UpdateInterval = x[0]
	cfg.Enablers.NeighborhoodSize = int(x[1])
	cfg.Enablers.LinkDelayScale = x[2]
	return cfg, nil
}

// collapse applies the engine's central-policy collapse, which the
// substrate is keyed on.
func collapse(cfg grid.Config, p grid.Policy) grid.Config {
	if p.Central() {
		cfg.Spec.ClusterSize = cfg.Spec.Clusters * cfg.Spec.ClusterSize
		cfg.Spec.Clusters = 1
		cfg.Workload.Clusters = 1
	}
	return cfg
}

// cachedSim has the JSON shape of the sweep's cache payload.
type cachedSim struct {
	Sum        grid.Summary
	Overflowed bool
}

// layers accumulates per-layer samples and counters of a traced run.
type layers struct {
	samples map[string][]float64
	counts  map[string]float64
}

func newLayers() *layers {
	return &layers{samples: make(map[string][]float64), counts: make(map[string]float64)}
}

func (l *layers) sample(name string, v float64) { l.samples[name] = append(l.samples[name], v) }

func (l *layers) ms(name string, d time.Duration) { l.sample(name, float64(d)/1e6) }

func (l *layers) count(name string, v float64) { l.counts[name] += v }

func (l *layers) dist(name string) dist { return newDist(l.samples[name]) }

func (l *layers) sum(name string) float64 {
	s := 0.0
	for _, v := range l.samples[name] {
		s += v
	}
	return s
}

// simReplay runs simulations through the public layer calls and records
// what each call cost, in spans under a given parent.
type simReplay struct {
	tr   *tracer
	l    *layers
	subs []*grid.Substrate // built so far; the sweep shares them the same way
	put  *runner.Cache     // writes the disk tier
	get  *runner.Cache     // a second handle on the same directory, so Get reads the disk
}

func newSimReplay(tr *tracer, l *layers, dir string) (*simReplay, error) {
	put, err := runner.NewCache(dir)
	if err != nil {
		return nil, err
	}
	get, err := runner.NewCache(dir)
	if err != nil {
		return nil, err
	}
	return &simReplay{tr: tr, l: l, put: put, get: get}, nil
}

// timed runs fn inside a span and records its duration in ms.
func (r *simReplay) timed(name string, parent int, req string, fn func() error) error {
	id := r.tr.begin(name, parent, req)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	r.tr.end(id)
	r.l.ms(name+"_ms", d)
	return err
}

// auditPair runs one simulation with and without the auditor, for the
// audit-overhead subset, and returns the audited summary.
func (r *simReplay) auditPair(parent int, req string, model string, cfg grid.Config, keyParts []any) (grid.Summary, error) {
	sum, with, err := r.run(parent, req, model, cfg, keyParts, true)
	if err != nil {
		return grid.Summary{}, err
	}
	_, without, err := r.run(parent, req, model, cfg, keyParts, false)
	if err != nil {
		return grid.Summary{}, err
	}
	r.l.ms("audit.subset_audit_ms", with)
	r.l.ms("audit.subset_noaudit_ms", without)
	return sum, nil
}

// run simulates cfg under model and returns the summary and the run
// time. keyParts address the runner cache the way the program addresses
// the same work. withAudit attaches the auditor; without it only the run
// time is recorded, for the audit-overhead subset.
func (r *simReplay) run(parent int, req string, model string, cfg grid.Config, keyParts []any, withAudit bool) (grid.Summary, time.Duration, error) {
	p, err := rms.ByName(model)
	if err != nil {
		return grid.Summary{}, 0, err
	}
	t0 := time.Now()
	id := r.tr.begin("runner.key", parent, req)
	key, err := runner.KeyOf(keyParts...)
	r.tr.end(id)
	r.l.sample("runner.key_us", float64(time.Since(t0))/1e3)
	if err != nil {
		return grid.Summary{}, 0, err
	}

	lookup := collapse(cfg, p)
	var sub *grid.Substrate
	for _, s := range r.subs {
		if s.Matches(lookup) {
			sub = s
			break
		}
	}
	if sub == nil {
		if err := r.timed("grid.substrate", parent, req, func() (err error) {
			sub, err = grid.BuildSubstrate(lookup)
			return err
		}); err != nil {
			return grid.Summary{}, 0, err
		}
		r.subs = append(r.subs, sub)
		r.l.count("grid.substrate_builds", 1)
		endpoints := append(append(append([]int(nil), sub.Map.SchedulerNode...), sub.Map.ResourceNode...), sub.Map.EstimatorNode...)
		if err := r.timed("routing.allpairs", parent, req, func() error {
			_, err := routing.AllPairs(sub.Graph, endpoints)
			return err
		}); err != nil {
			return grid.Summary{}, 0, err
		}
	}

	var e *grid.Engine
	if err := r.timed("grid.new", parent, req, func() (err error) {
		e, err = grid.NewWith(cfg, p, sub)
		return err
	}); err != nil {
		return grid.Summary{}, 0, err
	}
	var aud *audit.Auditor
	if withAudit {
		if err := r.timed("audit.attach", parent, req, func() (err error) {
			aud, err = audit.Attach(e, audit.Config{Mode: audit.Record})
			return err
		}); err != nil {
			return grid.Summary{}, 0, err
		}
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	name := "grid.run"
	if !withAudit {
		name = "grid.run_noaudit"
	}
	id = r.tr.begin(name, parent, req)
	t0 = time.Now()
	sum := e.Run()
	d := time.Since(t0)
	r.tr.end(id)
	runtime.ReadMemStats(&ms1)
	if e.K.Stalled {
		return grid.Summary{}, 0, e.K.Err()
	}
	if aud != nil {
		if err := aud.Err(); err != nil {
			return grid.Summary{}, 0, err
		}
	}
	if !withAudit {
		return sum, d, nil
	}
	ev := float64(e.K.Processed())
	r.l.ms("grid.run_ms", d)
	r.l.count("grid.run_s."+model, d.Seconds())
	r.l.count("sim.events", ev)
	r.l.count("grid.run_ns", float64(d))
	r.l.count("grid.mallocs", float64(ms1.Mallocs-ms0.Mallocs))
	r.l.count("grid.alloc_bytes", float64(ms1.TotalAlloc-ms0.TotalAlloc))

	b, err := json.Marshal(cachedSim{Sum: sum, Overflowed: e.K.Overflowed})
	if err != nil {
		return grid.Summary{}, 0, err
	}
	if err := r.timed("runner.put", parent, req, func() error { return r.put.Put(key, b) }); err != nil {
		return grid.Summary{}, 0, err
	}
	if err := r.timed("runner.get", parent, req, func() error {
		if _, ok := r.get.Get(key); !ok {
			return fmt.Errorf("runner cache lost key %s", key)
		}
		return nil
	}); err != nil {
		return grid.Summary{}, 0, err
	}
	if e.K.Overflowed {
		return grid.Summary{}, 0, fmt.Errorf("%s exceeded its event budget", model)
	}
	return sum, d, nil
}

// finish derives the per-event and audit ratios once all runs are in.
func (l *layers) finish() {
	if ev := l.counts["sim.events"]; ev > 0 {
		l.counts["sim.ns_per_event"] = l.counts["grid.run_ns"] / ev
		l.counts["grid.allocs_per_event"] = l.counts["grid.mallocs"] / ev
		l.counts["grid.bytes_per_event"] = l.counts["grid.alloc_bytes"] / ev
	}
	if na := l.sum("audit.subset_noaudit_ms"); na > 0 {
		l.counts["audit.overhead_ratio"] = l.sum("audit.subset_audit_ms") / na
	}
}

// observe folds replica summaries into one Observation exactly as the
// sweep's evaluator does, so equality can be checked bit for bit.
func observe(sums []grid.Summary) scale.Observation {
	var acc scale.Observation
	for _, s := range sums {
		acc.F += s.F
		acc.G += s.G
		acc.H += s.H
		acc.Throughput += s.Throughput
		acc.MeanResponse += s.MeanResponse
		acc.SuccessRate += s.SuccessRate
		acc.JobsLost += float64(s.JobsLost)
		acc.Crashes += float64(s.Crashes)
		acc.MsgsLost += float64(s.MsgsLost)
		acc.Retries += float64(s.Retries)
		acc.Failovers += float64(s.Failovers)
		if s.MaxSchedulerUtil > 0.98 || s.MaxSchedDelay > 25 {
			acc.Saturated = true
		}
	}
	n := float64(len(sums))
	acc.F /= n
	acc.G /= n
	acc.H /= n
	acc.Throughput /= n
	acc.MeanResponse /= n
	acc.SuccessRate /= n
	acc.JobsLost /= n
	acc.Crashes /= n
	acc.MsgsLost /= n
	acc.Retries /= n
	acc.Failovers /= n
	if total := acc.F + acc.G + acc.H; total > 0 {
		acc.Efficiency = acc.F / total
	}
	return acc
}

// sameObservation compares every field bit for bit.
func sameObservation(a, b scale.Observation) bool {
	fa := []float64{a.F, a.G, a.H, a.Efficiency, a.Throughput, a.MeanResponse, a.SuccessRate,
		a.JobsLost, a.Crashes, a.MsgsLost, a.Retries, a.Failovers}
	fb := []float64{b.F, b.G, b.H, b.Efficiency, b.Throughput, b.MeanResponse, b.SuccessRate,
		b.JobsLost, b.Crashes, b.MsgsLost, b.Retries, b.Failovers}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return a.Saturated == b.Saturated
}

// replaySweep re-runs every tuned point of res, checks each averaged
// Observation against the sweep's, and records per-layer costs. The
// k=1 replicas double as the audit-overhead subset.
func replaySweep(w sweepWorkload, seed int64, res *experiments.Result, dir string, tr *tracer, l *layers) error {
	sr, err := newSimReplay(tr, l, filepath.Join(dir, "cache"))
	if err != nil {
		return err
	}
	j, _, err := runner.OpenJournal(dir, "rmsbench replay")
	if err != nil {
		return err
	}
	defer j.Close()
	root := tr.begin("replay", 0, w.name)
	defer tr.end(root)
	for _, model := range res.Order {
		m, ok := res.Measurements[model]
		if !ok {
			return fmt.Errorf("sweep has no measurement for %s", model)
		}
		for _, pt := range m.Points {
			req := fmt.Sprintf("%s/k=%d", model, pt.K)
			ps := tr.begin("replay.point", root, req)
			var sums []grid.Summary
			for r := 0; r < mirrorReplicas(w.fid); r++ {
				cfg, err := mirrorConfig(w.id, w.fid, seed+int64(r)*101, pt.K, pt.Enablers)
				if err != nil {
					return err
				}
				keyParts := []any{"sim/v1", w.fid.String(), model, cfg}
				var sum grid.Summary
				if pt.K == m.Points[0].K {
					sum, err = sr.auditPair(ps, req, model, cfg, keyParts)
				} else {
					sum, _, err = sr.run(ps, req, model, cfg, keyParts, true)
				}
				if err != nil {
					return fmt.Errorf("replaying %s: %w", req, err)
				}
				sums = append(sums, sum)
			}
			if got := observe(sums); !sameObservation(got, pt.Obs) {
				return fmt.Errorf("replay fidelity: %s %s: replayed observation %+v differs from the sweep's %+v",
					w.name, req, got, pt.Obs)
			}
			l.count("replay.points", 1)
			l.count("replay.sims", float64(len(sums)))
			if err := sr.timed("runner.journal_record", ps, req, func() error {
				return j.Record(fmt.Sprintf("case%d/%s/k=%d", w.id, model, pt.K), pt)
			}); err != nil {
				return err
			}
			tr.end(ps)
		}
	}
	return nil
}

// progressLog collects Progress callbacks, which arrive from every pool
// worker.
type progressLog struct {
	mu     sync.Mutex
	t0     time.Time
	points map[string][]time.Time
	evals  int
	n      int
}

func newProgressLog(t0 time.Time) *progressLog {
	return &progressLog{t0: t0, points: make(map[string][]time.Time)}
}

func (p *progressLog) record(model string, pt scale.Point) {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.points[model] = append(p.points[model], now)
	p.evals += pt.Evals
	p.n++
}

// analyse derives per-point tuning times and the straggler tail: the
// time from the second-to-last model's final point to the sweep's end.
func (p *progressLog) analyse(end time.Time, tr *tracer, parent int, l *layers) {
	var finals []time.Time
	models := make([]string, 0, len(p.points))
	for m := range p.points {
		models = append(models, m)
	}
	sort.Strings(models)
	for _, m := range models {
		prev := p.t0
		for _, t := range p.points[m] {
			l.sample("anneal.point_s", t.Sub(prev).Seconds())
			tr.add("scale.point", parent, m, prev, t)
			prev = t
		}
		finals = append(finals, prev)
	}
	sort.Slice(finals, func(i, j int) bool { return finals[i].Before(finals[j]) })
	if len(finals) >= 2 {
		l.count("runner.straggler_s", end.Sub(finals[len(finals)-2]).Seconds())
	}
	l.count("scale.points", float64(p.n))
	l.count("anneal.evals", float64(p.evals))
}
