package main

import (
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting is exercised
	}
	return xs
}

// The tail is the highest percentile with at least ten samples beyond
// it, and the rendering always carries the sample count.
func TestTailRule(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		v    float64
		ok   bool
		text string
	}{
		{n: 10, ok: false, text: "p50=5 max=10 n=10"},
		{n: 19, ok: false, text: "n=19"},
		{n: 20, p: 50, v: 10, ok: true, text: "p50=10 n=20"},
		{n: 40, p: 75, v: 30, ok: true, text: "p50=20 p75=30 n=40"},
		{n: 100, p: 90, v: 90, ok: true, text: "p50=50 p90=90 n=100"},
		{n: 199, p: 90, v: 180, ok: true, text: "n=199"},
		{n: 200, p: 95, v: 190, ok: true, text: "p95=190 n=200"},
		{n: 1000, p: 99, v: 990, ok: true, text: "p99=990 n=1000"},
		{n: 10000, p: 99.9, v: 9990, ok: true, text: "p99.9=9990 n=10000"},
	}
	for _, c := range cases {
		d := newDist(seq(c.n))
		p, v, ok := d.Tail()
		if ok != c.ok || (ok && (p != c.p || v != c.v)) {
			t.Errorf("n=%d: Tail() = p%g %g %v, want p%g %g %v", c.n, p, v, ok, c.p, c.v, c.ok)
		}
		if ok && d.beyond(p) < 10 {
			t.Errorf("n=%d: p%g has only %d samples beyond it", c.n, p, d.beyond(p))
		}
		if s := d.String(); !strings.Contains(s, c.text) {
			t.Errorf("n=%d: String() = %q, want it to contain %q", c.n, s, c.text)
		}
	}
	if s := newDist(nil).String(); s != "n=0" {
		t.Errorf("empty dist renders %q", s)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4),
// which is how the spread of a metric is judged.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{2, 4}, 1.5, 3, 4.5},
		{[]float64{9.5, 1.25, 7, 3.5, 12, 4.75, 8}, 3.5, 7, 9.5},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// Self time subtracts the union of the children's intervals clipped to
// the parent, so overlapping children are not subtracted twice.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 30 * ms, End: 50 * ms},  // overlaps a by 10
		{ID: 4, Parent: 1, Name: "c", Start: 45 * ms, End: 48 * ms},  // inside b
		{ID: 5, Parent: 1, Name: "d", Start: 90 * ms, End: 120 * ms}, // runs past root
		{ID: 6, Parent: 2, Name: "a1", Start: 15 * ms, End: 20 * ms},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 100*ms - 40*ms - 10*ms, // covered: [10,50) and [90,100)
		2: 25 * ms,
		3: 20 * ms,
		4: 3 * ms,
		5: 30 * ms,
		6: 5 * ms,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time %v, want %v", id, self[id], w)
		}
	}
	if got := selfByName(spans)["root"]; got != 50 {
		t.Errorf("selfByName root = %g ms, want 50", got)
	}
}

func TestTracerNilIsInert(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, "")
	if d := tr.end(id); id != 0 || d != 0 {
		t.Errorf("nil tracer recorded span %d of %v", id, d)
	}
	live := newTracer()
	p := live.begin("p", 0, "r")
	c := live.begin("c", p, "r")
	live.end(c)
	open := live.begin("open", p, "r")
	live.end(p)
	spans := live.snapshot()
	if len(spans) != 2 || spans[0].Parent != 0 || spans[1].Parent != p || open == 0 {
		t.Errorf("snapshot %+v: want the two closed spans, child under parent", spans)
	}
}
