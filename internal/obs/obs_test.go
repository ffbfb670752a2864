package obs

import (
	"bufio"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryNoOps(t *testing.T) {
	var r *Registry
	r.Counter("a").Inc()
	r.Gauge("b").Set(1)
	r.Histogram("c").Observe(1)
	sp := r.StartSpan("phase")
	sp.Set("k", 1)
	sp.End()
	r.Emit("e", map[string]any{"x": 1})
	r.SetNow(nil)
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms)+len(s.Spans) != 0 {
		t.Fatal("nil registry produced data")
	}
	if got := s.Text(); !strings.Contains(got, "metrics") {
		t.Fatalf("empty snapshot still renders: %q", got)
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("solver.sa.sweeps")
	c.Add(40)
	c.Inc()
	c.Add(-5) // ignored: counters only go up
	if c.Value() != 41 {
		t.Fatalf("counter = %d, want 41", c.Value())
	}
	if r.Counter("solver.sa.sweeps") != c {
		t.Fatal("get-or-create returned a different counter")
	}
	g := r.Gauge("rate")
	g.Set(0.25)
	if g.Value() != 0.25 {
		t.Fatalf("gauge = %v", g.Value())
	}
	h := r.Histogram("wall_ms", 1, 10, 100)
	for _, v := range []float64{0.5, 5, 50, 500} {
		h.Observe(v)
	}
	s := r.Snapshot()
	if len(s.Histograms) != 1 {
		t.Fatalf("histograms = %d", len(s.Histograms))
	}
	hs := s.Histograms[0]
	if hs.Count != 4 || hs.Sum != 555.5 || hs.Min != 0.5 || hs.Max != 500 {
		t.Fatalf("hist snap = %+v", hs)
	}
	// 4 observations, one per bucket incl. overflow.
	for i, c := range hs.Counts {
		if c != 1 {
			t.Fatalf("bucket %d count = %d, want 1 (%v)", i, c, hs.Counts)
		}
	}
}

func TestSpansDeterministicUnderInjectedNow(t *testing.T) {
	r := NewRegistry()
	now := time.Unix(0, 0)
	r.SetNow(func() time.Time { return now })
	sp := r.StartSpan("phase.portfolio")
	sp.Set("reads", 8)
	now = now.Add(250 * time.Millisecond)
	sp.End()
	sp.End() // double End is a no-op

	s := r.Snapshot()
	if len(s.Spans) != 1 {
		t.Fatalf("spans = %d", len(s.Spans))
	}
	if d := s.Spans[0].Duration(); d != 250*time.Millisecond {
		t.Fatalf("duration = %v", d)
	}
	if len(s.Spans[0].Attrs) != 1 || s.Spans[0].Attrs[0] != (Attr{Key: "reads", Value: "8"}) {
		t.Fatalf("attrs = %+v", s.Spans[0].Attrs)
	}
	// End also feeds the aggregate histogram.
	found := false
	for _, h := range s.Histograms {
		if h.Name == "span.phase.portfolio.ms" {
			found = true
			if h.Count != 1 || h.Sum != 250 {
				t.Fatalf("span histogram = %+v", h)
			}
		}
	}
	if !found {
		t.Fatal("span duration histogram missing")
	}
	groups := s.SpanGroups()
	if len(groups) != 1 || groups[0].Count != 1 || groups[0].Total != 250*time.Millisecond {
		t.Fatalf("groups = %+v", groups)
	}
}

func TestSpanLogBounded(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < maxSpans+10; i++ {
		r.StartSpan("s").End()
	}
	s := r.Snapshot()
	if len(s.Spans) != maxSpans || s.DroppedSpans != 10 {
		t.Fatalf("spans = %d dropped = %d", len(s.Spans), s.DroppedSpans)
	}
	// The histogram keeps the full count even after the log overflows.
	for _, h := range s.Histograms {
		if h.Name == "span.s.ms" && h.Count != int64(maxSpans+10) {
			t.Fatalf("histogram count = %d", h.Count)
		}
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter("n").Inc()
				r.Gauge("g").Set(float64(i))
				r.Histogram("h").Observe(float64(i))
				sp := r.StartSpan("work")
				sp.Set("worker", w)
				sp.End()
				r.Emit("tick", map[string]any{"i": i})
			}
		}(w)
	}
	wg.Wait()
	s := r.Snapshot()
	if got := s.Counters[0].Value; got != 1600 {
		t.Fatalf("counter = %d", got)
	}
	if len(s.Spans)+int(s.DroppedSpans) != 1600 {
		t.Fatalf("spans %d + dropped %d != 1600", len(s.Spans), s.DroppedSpans)
	}
}

func TestRenderAndCSV(t *testing.T) {
	r := NewRegistry()
	r.Counter("solver.exact.nodes").Add(123)
	r.Gauge("solver.sa.acceptance_rate").Set(0.4)
	r.Histogram("solver.sa.wall_ms").Observe(12)
	r.StartSpan("phase.presolve").End()
	s := r.Snapshot()
	text := s.Text()
	for _, want := range []string{"solver.exact.nodes", "123", "acceptance_rate", "phase.presolve"} {
		if !strings.Contains(text, want) {
			t.Fatalf("text missing %q:\n%s", want, text)
		}
	}
	csv := s.CSV()
	if !strings.Contains(csv, "counter,solver.exact.nodes,123") {
		t.Fatalf("csv missing counter row:\n%s", csv)
	}
	if !strings.Contains(csv, "span,span.phase.presolve.ms") && !strings.Contains(csv, "span,phase.presolve") {
		t.Fatalf("csv missing span row:\n%s", csv)
	}
}

func TestWriteEventsIsValidJSONLines(t *testing.T) {
	r := NewRegistry()
	now := time.Unix(1700000000, 0)
	r.SetNow(func() time.Time { return now })
	sp := r.StartSpan("dlb.round")
	sp.Set("iteration", 0)
	now = now.Add(3 * time.Millisecond)
	sp.End()
	r.Emit("breaker", map[string]any{"state": "open", "trips": 1})
	r.Counter("rounds").Inc()
	r.Gauge("imbalance").Set(1.5)
	r.Histogram("h").Observe(2)

	var b strings.Builder
	if err := r.Snapshot().WriteEvents(&b); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	kinds := map[string]int{}
	for sc.Scan() {
		var e map[string]any
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad JSON line %q: %v", sc.Text(), err)
		}
		kinds[e["kind"].(string)]++
	}
	// "histogram" is 2: the explicit one plus the span-duration one
	// End() feeds automatically.
	want := map[string]int{"span": 1, "event": 1, "counter": 1, "gauge": 1, "histogram": 2}
	for k, n := range want {
		if kinds[k] != n {
			t.Fatalf("kind %q count = %d, want %d (%v)", k, kinds[k], n, kinds)
		}
	}
	// Event attrs are sorted by key for deterministic output.
	if !strings.Contains(b.String(), `"attrs":[{"key":"state","value":"open"},{"key":"trips","value":"1"}]`) {
		t.Fatalf("event attrs not sorted:\n%s", b.String())
	}
}

// TestLookupCounterNeverCreates: a lookup of a counter nobody wrote
// reads 0 and leaves the registry empty; once created, the lookup
// returns the same counter.
func TestLookupCounterNeverCreates(t *testing.T) {
	var nilReg *Registry
	if v := nilReg.LookupCounter("x").Value(); v != 0 {
		t.Fatalf("nil registry lookup = %d, want 0", v)
	}
	r := NewRegistry()
	if v := r.LookupCounter("hedge.backend.sa.wins").Value(); v != 0 {
		t.Fatalf("missing counter reads %d, want 0", v)
	}
	if n := len(r.Snapshot().Counters); n != 0 {
		t.Fatalf("lookup created %d counters, want 0", n)
	}
	c := r.Counter("hedge.backend.sa.wins")
	c.Add(3)
	if got := r.LookupCounter("hedge.backend.sa.wins"); got != c || got.Value() != 3 {
		t.Fatalf("lookup after create = %p (%d), want %p (3)", got, got.Value(), c)
	}
}
