package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/exact"
	"repro/internal/solve"
)

// BenchmarkServeRequests measures end-to-end requests/sec through the
// in-process HTTP handler with the exact backend: POST /solve, wait for
// completion, GET /jobs/{id}. This is the serving-layer overhead figure
// for BENCH_7.json — admission, queueing, pipeline, and verification
// included.
func BenchmarkServeRequests(b *testing.B) {
	s, err := New(Options{
		Backend:     exact.NewEngine(),
		NoRateLimit: true,
		Workers:     4,
		QueueDepth:  256,
		MaxJobs:     1 << 16,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx) //nolint:errcheck
	}()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()
	client := ts.Client()

	body := `{"tasks":[4,4,4],"weights":[8,2,2],"budget_ms":2000}`
	post := func() string {
		resp, err := client.Post(ts.URL+"/solve", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			b.Fatalf("POST /solve status = %d", resp.StatusCode)
		}
		var out struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			b.Fatal(err)
		}
		return out.ID
	}

	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		id := post()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		j, err := s.Wait(ctx, id)
		cancel()
		if err != nil {
			b.Fatal(err)
		}
		if j.Status != StatusDone {
			b.Fatalf("job %s status = %s (err %q)", id, j.Status, j.Error)
		}
		resp, err := client.Get(ts.URL + "/jobs/" + id)
		if err != nil {
			b.Fatal(err)
		}
		// Drain before closing so the keep-alive connection is reused;
		// an unread body makes every iteration dial a new one.
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
	}
	b.StopTimer()
	if el := time.Since(start).Seconds(); el > 0 {
		b.ReportMetric(float64(b.N)/el, "req/s")
	}
}

// BenchmarkServeAdmission isolates the admission path — validate,
// rate-limit, enqueue-reject — with a full queue, measuring the cost of
// shedding one request under overload.
func BenchmarkServeAdmission(b *testing.B) {
	bk := newBlocking()
	s, err := New(Options{
		Backend: bk, NoRateLimit: true,
		QueueDepth: 1, Workers: 1, DefaultBudget: time.Hour,
		Clock: solve.NewFake(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		close(bk.release)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx) //nolint:errcheck
	}()
	// Fill the single queue slot and occupy the worker.
	if _, err := s.Submit(req("bench")); err != nil {
		b.Fatal(err)
	}
	<-bk.started
	if _, err := s.Submit(req("bench")); err != nil {
		b.Fatal(err)
	}

	r := req("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Submit(r); err == nil {
			b.Fatal("expected overload rejection with a full queue")
		}
	}
}
