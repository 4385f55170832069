package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rmscale/internal/fsutil"
	"rmscale/internal/rms"
	"rmscale/internal/service"
)

// daemon-mix: an in-process rmscaled over a disk-backed directory,
// served on loopback HTTP, under open-loop Poisson arrivals. Set-up
// fills the store, closes the daemon and reopens it; the measured
// window then mixes resubmissions of stored specs (the read path) with
// fresh sim specs (queue, supervised execution, store write, journal
// append, fetch).
const (
	// The traffic follows the repository's load model for rmscaled,
	// internal/service/loadgen, as perfbench and `make loadtest` run
	// it: 1000 submissions over Distinct = Objects/8 = 125 specs, each
	// a sim of Horizon 250. So one submission in eight executes and the
	// other seven are answered from the store, the store holds 125
	// results, and every spec has horizon 250.
	//
	// daemonFreshShare is the share of arrivals that are fresh specs.
	daemonFreshShare = 1.0 / 8
	// daemonStored is how many results the set-up stores; resubmissions
	// draw from them uniformly.
	daemonStored = 125
	// daemonHorizon is every spec's simulated duration.
	daemonHorizon = 250.0
	// daemonRate is the offered load in arrivals per second, well
	// below the knee: 7.5 fresh specs a second of a few milliseconds
	// each keep the two shards busy a small fraction of the time, so
	// the queue does not grow.
	daemonRate = 60.0
	// daemonConns bounds the client's concurrent connections and the
	// daemon's worker shards to the host's CPU count.
	daemonConns = 2
	// daemonP99LimitMs is the latency limit on the p99 of the mix.
	daemonP99LimitMs = 250.0
	// setupReps is how many times a run repeats its set-up to report
	// the median.
	setupReps = 15
)

// storedSpec and freshSpec derive the workload's inputs from the seed;
// the two seed ranges never meet, so a fresh spec is never stored.
func storedSpec(seed int64, i int) service.ExperimentSpec {
	names := rms.Names()
	return service.ExperimentSpec{Kind: service.KindSim, Seed: seed*1_000_000 + int64(i), Model: names[i%len(names)], Horizon: daemonHorizon}
}

func freshSpec(seed int64, j int) service.ExperimentSpec {
	names := rms.Names()
	return service.ExperimentSpec{Kind: service.KindSim, Seed: seed*1_000_000 + 500_000 + int64(j), Model: names[(j*3)%len(names)], Horizon: daemonHorizon}
}

// mixPlan is the arrival schedule of one measured window: due times and,
// per arrival, the spec and whether it is fresh.
type mixPlan struct {
	due   []time.Duration
	specs []service.ExperimentSpec
	fresh []bool
}

// planMix draws the window's arrivals. Exactly round(n*share) of them
// are fresh, at seeded positions; freshBase offsets the fresh specs so
// two windows of one run never share one.
func planMix(seed int64, window time.Duration, freshBase int) mixPlan {
	rng := rand.New(rand.NewSource(seed))
	due := poissonSchedule(rng, daemonRate, window)
	n := len(due)
	nFresh := int(float64(n)*daemonFreshShare + 0.5)
	fresh := make([]bool, n)
	for _, i := range rng.Perm(n)[:nFresh] {
		fresh[i] = true
	}
	specs := make([]service.ExperimentSpec, n)
	j := freshBase
	for i := range specs {
		if fresh[i] {
			specs[i] = freshSpec(seed, j)
			j++
		} else {
			specs[i] = storedSpec(seed, rng.Intn(daemonStored))
		}
	}
	return mixPlan{due: due, specs: specs, fresh: fresh}
}

// hooks are the traced run's wrappers around the daemon's seams.
type hooks struct {
	tr *tracer
	l  *syncLayers
	// accepted maps an experiment ID to when its submission reached the
	// handler, for queue wait.
	accepted sync.Map
}

// syncLayers guards layers for the daemon's concurrent callers.
type syncLayers struct {
	mu sync.Mutex
	l  *layers
}

func (s *syncLayers) ms(name string, d time.Duration) {
	s.mu.Lock()
	s.l.ms(name, d)
	s.mu.Unlock()
}

func (s *syncLayers) count(name string, v float64) {
	s.mu.Lock()
	s.l.count(name, v)
	s.mu.Unlock()
}

// timedFS wraps the real filesystem and times the durable-write and
// read primitives the result store and journal use.
type timedFS struct {
	fsutil.RealFS
	h     *hooks
	reads atomic.Int64
}

func (f *timedFS) WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	id := f.h.tr.begin("fsutil.write_atomic", 0, filepath.Base(path))
	t0 := time.Now()
	err := f.RealFS.WriteFileAtomic(path, data, perm)
	f.h.l.ms("fsutil.write_atomic_ms", time.Since(t0))
	f.h.tr.end(id)
	return err
}

func (f *timedFS) AppendSync(file fsutil.File, b []byte) error {
	id := f.h.tr.begin("fsutil.append_sync", 0, "")
	t0 := time.Now()
	err := f.RealFS.AppendSync(file, b)
	f.h.l.ms("fsutil.append_sync_ms", time.Since(t0))
	f.h.tr.end(id)
	return err
}

func (f *timedFS) ReadFile(name string) ([]byte, error) {
	id := f.h.tr.begin("fsutil.read", 0, filepath.Base(name))
	t0 := time.Now()
	b, err := f.RealFS.ReadFile(name)
	f.h.l.ms("fsutil.read_ms", time.Since(t0))
	f.h.tr.end(id)
	f.reads.Add(1)
	return b, err
}

// wrapExec times each execution and its queue wait.
func (h *hooks) wrapExec(next service.ExecFunc) service.ExecFunc {
	return func(ctx context.Context, spec service.ExperimentSpec, dir string) ([]byte, error) {
		id, _ := spec.ID()
		start := time.Now()
		if t, ok := h.accepted.Load(id); ok {
			h.l.ms("service.queue_wait_ms", start.Sub(t.(time.Time)))
			h.tr.add("service.queue_wait", 0, id, t.(time.Time), start)
		}
		sid := h.tr.begin("service.exec", 0, id)
		b, err := next(ctx, spec, dir)
		h.l.ms("service.exec_ms", time.Since(start))
		h.l.count("service.execs", 1)
		h.tr.end(sid)
		return b, err
	}
}

// wrapHandler times the submit and result routes server-side and notes
// each submission's acceptance time.
func (h *hooks) wrapHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := "service.http_other"
		req := ""
		switch {
		case r.Method == http.MethodPost:
			name = "service.http_submit"
			body, err := io.ReadAll(r.Body)
			if err == nil {
				var spec service.ExperimentSpec
				if json.Unmarshal(body, &spec) == nil {
					if id, err := spec.ID(); err == nil {
						req = id
						h.accepted.LoadOrStore(id, time.Now())
					}
				}
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		case filepath.Base(r.URL.Path) == "result":
			name = "service.http_result"
			req = filepath.Base(filepath.Dir(r.URL.Path))
		case filepath.Base(r.URL.Path) == "stream":
			name = "service.http_stream"
			req = filepath.Base(filepath.Dir(r.URL.Path))
		}
		id := h.tr.begin(name, 0, req)
		t0 := time.Now()
		next.ServeHTTP(w, r)
		h.l.ms(name+"_ms", time.Since(t0))
		h.tr.end(id)
	})
}

// liveDaemon is a daemon incarnation served on a loopback listener.
type liveDaemon struct {
	d     *service.Daemon
	srv   *http.Server
	base  string
	done  chan error
	conns atomic.Int64
}

// openDaemon starts a daemon over dir and serves it; it returns once
// /v1/healthz answers, so its duration is the restart recovery plus the
// listener becoming ready.
func openDaemon(dir string, h *hooks, fs *timedFS) (*liveDaemon, error) {
	cfg := service.Config{Dir: dir, Shards: daemonConns, QueueCap: 1024}
	if h != nil {
		cfg.Exec = h.wrapExec(service.Executor{}.Run)
		cfg.FS = fs
	}
	d, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.Close()
		return nil, err
	}
	handler := service.NewServer(d).Handler()
	if h != nil {
		handler = h.wrapHandler(handler)
	}
	ld := &liveDaemon{d: d, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	ld.srv = &http.Server{Handler: handler, ConnState: func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			ld.conns.Add(1)
		}
	}}
	go func() { ld.done <- ld.srv.Serve(ln) }()
	resp, err := http.Get(ld.base + "/v1/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz answered %s", resp.Status)
		}
	}
	if err != nil {
		ld.close()
		return nil, err
	}
	return ld, nil
}

// close stops the listener, waits for the serve loop, and drains and
// closes the daemon.
func (ld *liveDaemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := ld.srv.Shutdown(ctx)
	if serr := <-ld.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := ld.d.Close(); err == nil {
		err = cerr
	}
	return err
}

// fillStore executes the stored specs once, directly on the daemon.
func fillStore(dir string, seed int64) error {
	d, err := service.New(service.Config{Dir: dir, Shards: daemonConns, QueueCap: 1024})
	if err != nil {
		return err
	}
	var ids []string
	for i := 0; i < daemonStored; i++ {
		st, err := d.Submit(storedSpec(seed, i), "fill")
		if err != nil {
			d.Close()
			return err
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		st, ok := d.Status(id)
		for ok && !st.State.Terminal() {
			st, ok = d.Await(id, st.State)
		}
		if !ok || st.State != service.StateDone {
			d.Close()
			return fmt.Errorf("filling the store: %s ended %s %s", id, st.State, st.Error)
		}
	}
	return d.Close()
}

// mixClient drives one window against a live daemon.
type mixClient struct {
	c    *http.Client
	base string
	mu   sync.Mutex
	got  map[string][]byte // experiment ID -> fetched payload
}

func newMixClient(base string) *mixClient {
	tr := &http.Transport{MaxConnsPerHost: daemonConns, MaxIdleConnsPerHost: daemonConns}
	return &mixClient{c: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base, got: make(map[string][]byte)}
}

func (m *mixClient) closeIdle() { m.c.CloseIdleConnections() }

func (m *mixClient) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, m.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := m.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// request submits spec, waits for it when it is not yet done, and
// fetches the result bytes. A refusal or any unexpected status fails it.
func (m *mixClient) request(spec service.ExperimentSpec, fresh bool) error {
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	code, b, err := m.do(http.MethodPost, "/v1/experiments", body)
	if err != nil {
		return err
	}
	var st service.Status
	if err := json.Unmarshal(b, &st); err != nil {
		return fmt.Errorf("submit answered %d: %s", code, b)
	}
	switch {
	case !fresh && code != http.StatusOK:
		return fmt.Errorf("resubmitting stored %s answered %d, want 200", spec, code)
	case fresh && code != http.StatusAccepted:
		return fmt.Errorf("submitting fresh %s answered %d, want 202", spec, code)
	}
	if st.State != service.StateDone {
		if err := m.await(st.ID); err != nil {
			return err
		}
	}
	code, b, err = m.do(http.MethodGet, "/v1/experiments/"+st.ID+"/result", nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("fetching %s answered %d", st.ID, code)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if prev, ok := m.got[st.ID]; ok && !bytes.Equal(prev, b) {
		return fmt.Errorf("%s fetched two different payloads", st.ID)
	}
	m.got[st.ID] = b
	return nil
}

// await follows the status stream until the experiment is terminal.
func (m *mixClient) await(id string) error {
	resp, err := m.c.Get(m.base + "/v1/experiments/" + id + "/stream")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var st service.Status
		if err := json.Unmarshal(sc.Bytes(), &st); err != nil {
			return err
		}
		if st.State.Terminal() {
			if st.State != service.StateDone {
				return fmt.Errorf("%s failed: %s", id, st.Error)
			}
			// The stream ends at the terminal state; reading to EOF
			// lets the connection be reused.
			_, err := io.Copy(io.Discard, resp.Body)
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("stream of %s ended before a terminal state", id)
}

// stats fetches /v1/stats.
func (m *mixClient) stats() (service.Stats, error) {
	code, b, err := m.do(http.MethodGet, "/v1/stats", nil)
	if err != nil {
		return service.Stats{}, err
	}
	var st service.Stats
	if code != http.StatusOK {
		return st, fmt.Errorf("stats answered %d", code)
	}
	return st, json.Unmarshal(b, &st)
}

// windowResult is one measured window.
type windowResult struct {
	arrivals []arrival
	epoch    time.Time // the arrivals' time origin
	plan     mixPlan
	client   *mixClient
	stats    service.Stats
	cpu      time.Duration
	rssMB    float64 // the process's peak RSS by the window's end
	conns    int64
	mem0     runtime.MemStats
	mem1     runtime.MemStats
}

// runWindow sends the plan to a live daemon and collects the outcome.
func runWindow(ld *liveDaemon, plan mixPlan, traced bool) (windowResult, error) {
	mc := newMixClient(ld.base)
	defer mc.closeIdle()
	wr := windowResult{plan: plan, client: mc}
	conns0 := ld.conns.Load() // the readiness probe's
	if traced {
		runtime.ReadMemStats(&wr.mem0)
	}
	c0 := cpuTime()
	wr.epoch = time.Now()
	wr.arrivals = runOpenLoop(wallClock{epoch: wr.epoch}, plan.due, daemonConns, func(i int) error {
		return mc.request(plan.specs[i], plan.fresh[i])
	})
	wr.cpu = cpuTime() - c0
	wr.rssMB = peakRSSMB()
	if traced {
		runtime.ReadMemStats(&wr.mem1)
	}
	wr.conns = ld.conns.Load() - conns0
	st, err := mc.stats()
	wr.stats = st
	return wr, err
}

// checkWindow applies daemon-mix's output checks: the daemon ran each
// distinct fresh spec exactly once and failed none, and every fetched
// payload equals a direct Executor.Run of its spec.
func checkWindow(wr windowResult) error {
	fresh := make(map[string]bool)
	specs := make(map[string]service.ExperimentSpec)
	for i, s := range wr.plan.specs {
		id, err := s.ID()
		if err != nil {
			return err
		}
		specs[id] = s
		if wr.plan.fresh[i] {
			fresh[id] = true
		}
	}
	if wr.stats.Failed != 0 {
		return fmt.Errorf("daemon stats: %d failed executions", wr.stats.Failed)
	}
	if wr.stats.Executions != int64(len(fresh)) {
		return fmt.Errorf("daemon stats: %d executions, want %d distinct fresh specs", wr.stats.Executions, len(fresh))
	}
	for id, b := range wr.client.got {
		want, err := service.Executor{}.Run(context.Background(), specs[id], "")
		if err != nil {
			return fmt.Errorf("direct run of %s: %w", specs[id], err)
		}
		if !bytes.Equal(b, want) {
			return fmt.Errorf("payload of %s differs from a direct Executor.Run", specs[id])
		}
	}
	return nil
}

// latencies splits the window's request latencies (ms) by class.
func (wr windowResult) latencies() (all, fresh, hit, late []float64, failed int) {
	for i, a := range wr.arrivals {
		if a.Err != nil {
			failed++
			continue
		}
		ms := float64(a.Latency()) / 1e6
		all = append(all, ms)
		if wr.plan.fresh[i] {
			fresh = append(fresh, ms)
		} else {
			hit = append(hit, ms)
		}
		late = append(late, float64(a.Late())/1e6)
	}
	return
}

// firstErr returns the first failed arrival's error.
func (wr windowResult) firstErr() error {
	for i, a := range wr.arrivals {
		if a.Err != nil {
			return fmt.Errorf("request %d (%s): %w", i, wr.plan.specs[i], a.Err)
		}
	}
	return nil
}
