package routing

import (
	"container/heap"
	"fmt"
	"math"
	"reflect"
	"testing"

	"rmscale/internal/sim"
	"rmscale/internal/topology"
)

// refQueue is a container/heap Dijkstra queue: the reference the typed
// nodeQueue must match pop for pop.
type refQueue []nodeItem

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(nodeItem)) }
func (q *refQueue) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// refSPF is Dijkstra over container/heap, one fresh table per source.
func refSPF(g *topology.Graph, src int) *Table {
	t := &Table{
		Source:    src,
		Latency:   make([]float64, g.N),
		Hops:      make([]int, g.N),
		NextHop:   make([]int, g.N),
		Bandwidth: make([]float64, g.N),
	}
	for i := range t.Latency {
		t.Latency[i] = math.Inf(1)
		t.Hops[i] = -1
		t.NextHop[i] = -1
	}
	t.Latency[src], t.Hops[src], t.NextHop[src] = 0, 0, src
	t.Bandwidth[src] = math.Inf(1)
	q := &refQueue{{node: src}}
	done := make([]bool, g.N)
	for q.Len() > 0 {
		u := heap.Pop(q).(nodeItem).node
		if done[u] {
			continue
		}
		done[u] = true
		for _, e := range g.Adj[u] {
			nd := t.Latency[u] + e.Latency
			if nd < t.Latency[e.To] {
				t.Latency[e.To] = nd
				t.Hops[e.To] = t.Hops[u] + 1
				t.Bandwidth[e.To] = math.Min(e.Bandwidth, t.Bandwidth[u])
				if u == src {
					t.NextHop[e.To] = e.To
				} else {
					t.NextHop[e.To] = t.NextHop[u]
				}
				heap.Push(q, nodeItem{node: e.To, dist: nd})
			}
		}
	}
	return t
}

// tieGraphs returns graphs built to have many equal-latency routes, so
// the route chosen (hops, next hop, bottleneck bandwidth) depends on
// the order equal distances pop: unit-latency lattices and random
// graphs with latencies from {1, 2}, both with varied bandwidth, plus a
// generated topology with continuous latencies.
func tieGraphs(t *testing.T) map[string]*topology.Graph {
	t.Helper()
	st := sim.NewSource(11).Stream("tie-graphs")
	add := func(g *topology.Graph, u, v int, lat float64) {
		if err := g.AddEdge(u, v, lat, float64(st.IntRange(1, 6))); err != nil {
			t.Fatal(err)
		}
	}
	out := map[string]*topology.Graph{}
	for _, side := range []int{3, 6, 9} {
		g := topology.NewGraph(side * side)
		for r := 0; r < side; r++ {
			for c := 0; c < side; c++ {
				if c+1 < side {
					add(g, r*side+c, r*side+c+1, 1)
				}
				if r+1 < side {
					add(g, r*side+c, (r+1)*side+c, 1)
				}
			}
		}
		out[fmt.Sprintf("lattice%d", side)] = g
	}
	for i, n := range []int{20, 50, 90} {
		g := topology.NewGraph(n)
		for v := 1; v < n; v++ { // a spanning tree keeps it connected
			add(g, v, st.Intn(v), float64(st.IntRange(1, 2)))
		}
		for extra := 0; extra < 2*n; extra++ {
			u, v := st.Intn(n), st.Intn(n)
			if u != v && !g.HasEdge(u, v) {
				add(g, u, v, float64(st.IntRange(1, 2)))
			}
		}
		out[fmt.Sprintf("random%d", i)] = g
	}
	g, err := topology.PowerLaw(120, 2, topology.DefaultLinkParams(), st)
	if err != nil {
		t.Fatal(err)
	}
	out["powerlaw"] = g
	return out
}

func TestSPFMatchesContainerHeapReference(t *testing.T) {
	for name, g := range tieGraphs(t) {
		for src := 0; src < g.N; src++ {
			got, err := SPF(g, src)
			if err != nil {
				t.Fatal(err)
			}
			if want := refSPF(g, src); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: SPF from %d differs from the container/heap reference:\n got %+v\nwant %+v",
					name, src, got, want)
			}
		}
	}
}

func TestAllPairsMatchesContainerHeapReference(t *testing.T) {
	st := sim.NewSource(12).Stream("endpoints")
	for name, g := range tieGraphs(t) {
		// Endpoints in random order with duplicates, as the grid's
		// scheduler/resource/estimator node lists can repeat.
		eps := make([]int, g.N)
		for i := range eps {
			eps[i] = st.Intn(g.N)
		}
		m, err := AllPairs(g, eps)
		if err != nil {
			t.Fatal(err)
		}
		for i, u := range m.IDs {
			ref := refSPF(g, u)
			for j, v := range m.IDs {
				if m.Latency[i][j] != ref.Latency[v] || m.Hops[i][j] != ref.Hops[v] ||
					m.Bandwidth[i][j] != ref.Bandwidth[v] {
					t.Fatalf("%s: route %d->%d = (%v, %d, %v), reference (%v, %d, %v)", name, u, v,
						m.Latency[i][j], m.Hops[i][j], m.Bandwidth[i][j],
						ref.Latency[v], ref.Hops[v], ref.Bandwidth[v])
				}
			}
		}
	}
}
