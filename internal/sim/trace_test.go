package sim

import (
	"bytes"
	"strings"
	"testing"
)

func TestTracerRecords(t *testing.T) {
	k := NewKernel()
	tr := NewTracer(k, 0)
	k.Schedule(5, func() { tr.Trace("dispatch", "job 1") })
	k.Schedule(9, func() { tr.Tracef("complete", "job %d", 1) })
	k.Run(100)
	ev := tr.Events()
	if len(ev) != 2 {
		t.Fatalf("events = %d", len(ev))
	}
	if ev[0].At != 5 || ev[0].Kind != "dispatch" || ev[0].Detail != "job 1" {
		t.Fatalf("event 0 = %+v", ev[0])
	}
	if ev[1].Detail != "job 1" || ev[1].Kind != "complete" {
		t.Fatalf("event 1 = %+v", ev[1])
	}
	if tr.Count("dispatch") != 1 || tr.Count("missing") != 0 {
		t.Fatal("counts wrong")
	}
	kinds := tr.Kinds()
	if len(kinds) != 2 || kinds[0] != "complete" || kinds[1] != "dispatch" {
		t.Fatalf("kinds = %v", kinds)
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Trace("x", "y") // must not panic
	tr.Tracef("x", "%d", 1)
	if tr.Count("x") != 0 || tr.Events() != nil || tr.Kinds() != nil {
		t.Fatal("nil tracer not inert")
	}
}

func TestTracerLimit(t *testing.T) {
	for _, limit := range []int{10, 1} {
		k := NewKernel()
		tr := NewTracer(k, limit)
		for i := 0; i < 100; i++ {
			tr.Trace("tick", "")
		}
		if got := len(tr.Events()); got > limit {
			t.Fatalf("retained %d events over limit %d", got, limit)
		}
		if tr.Count("tick") != 100 {
			t.Fatalf("limit %d: count = %d, want 100 (counts survive eviction)", limit, tr.Count("tick"))
		}
	}
}

func TestTracerDump(t *testing.T) {
	k := NewKernel()
	tr := NewTracer(k, 0)
	tr.Trace("alpha", "one")
	tr.Trace("beta", "two")
	var buf bytes.Buffer
	if err := tr.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "two") {
		t.Fatalf("dump missing events:\n%s", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 2 {
		t.Fatal("dump line count wrong")
	}
}
