package main

import (
	"fmt"
	"math"
	"sort"
)

// tailLadder lists the percentiles a tail is reported at, lowest first.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// dist summarises one timing's samples.
type dist struct {
	xs []float64 // sorted ascending
}

func newDist(samples []float64) dist {
	xs := append([]float64(nil), samples...)
	sort.Float64s(xs)
	return dist{xs: xs}
}

// N is the sample count.
func (d dist) N() int { return len(d.xs) }

// rank is the 1-based nearest rank of the p-th percentile. The
// epsilon keeps binary rounding of p (99.9 is not exact) from pushing
// an exact rank up by one.
func (d dist) rank(p float64) int {
	return int(math.Ceil(p*float64(len(d.xs))/100 - 1e-9))
}

// Pct is the nearest-rank p-th percentile; 0 without samples.
func (d dist) Pct(p float64) float64 {
	if len(d.xs) == 0 {
		return 0
	}
	i := d.rank(p) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(d.xs) {
		i = len(d.xs) - 1
	}
	return d.xs[i]
}

// beyond counts the samples ranked above the nearest-rank p-th
// percentile.
func (d dist) beyond(p float64) int {
	return len(d.xs) - d.rank(p)
}

// Tail applies the reporting rule for tails: the highest percentile of
// the ladder that still has at least ten samples beyond it. ok is false
// when not even the median has ten samples beyond it.
func (d dist) Tail() (p, v float64, ok bool) {
	for i := len(tailLadder) - 1; i >= 0; i-- {
		if d.beyond(tailLadder[i]) >= 10 {
			return tailLadder[i], d.Pct(tailLadder[i]), true
		}
	}
	return 0, 0, false
}

// String renders the median, the rule's tail and the sample count.
func (d dist) String() string {
	if d.N() == 0 {
		return "n=0"
	}
	s := fmt.Sprintf("p50=%.4g", d.Pct(50))
	if p, v, ok := d.Tail(); ok && p > 50 {
		s += fmt.Sprintf(" p%g=%.4g", p, v)
	} else if !ok {
		s += fmt.Sprintf(" max=%.4g", d.xs[len(d.xs)-1])
	}
	return s + fmt.Sprintf(" n=%d", d.N())
}

// quartiles mirrors Python's statistics.quantiles(data, n=4) with its
// default exclusive method, so a spread computed here matches one
// computed from the same values in Python.
func quartiles(samples []float64) (q1, q2, q3 float64) {
	xs := append([]float64(nil), samples...)
	sort.Float64s(xs)
	ld := len(xs)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// median is the middle quartile.
func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}
