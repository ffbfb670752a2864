package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lrp"
	"repro/internal/plancache"
	"repro/internal/serve"
	"repro/internal/verify"
	"repro/internal/wal"
)

const (
	// clients is the number of closed-loop callers (the machine has
	// nproc = 2).
	clients = 2
	// tasksPerProc is the task count of every process in the served
	// instances (the paper's §V-B.2 scale).
	tasksPerProc = 100
	// setupTrials is how many times a run sets its workload up; setup_s
	// is their median.
	setupTrials = 3
	// budgetTolerance is how far the per-layer parts may miss the total
	// they split (latency_p50_ms on the served workloads, the loop wall
	// on shard-rounds), as a share of it, before the budget is reported
	// as not adding up.
	budgetTolerance = 0.15
)

// client is a keep-alive HTTP client that counts its TCP dials. Every
// response body is drained and closed, so each caller reuses one
// connection for its whole run.
type client struct {
	base  string
	tr    *http.Transport
	hc    *http.Client
	dials atomic.Int64
}

func newClient(addr string) *client {
	c := &client{base: "http://" + addr}
	var d net.Dialer
	c.tr = &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c.dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
		MaxIdleConns:        clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}
	c.hc = &http.Client{Transport: c.tr}
	return c
}

// do sends one request and returns the status and the fully read body.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// request is one generated submission and the instance it encodes.
type request struct {
	req *serve.Request
	in  *lrp.Instance
}

// verifyK is the migration cap the oracle checks: the request's "0 =
// unconstrained" is verify.Plan's k < 0.
func (r request) verifyK() int {
	if r.req.K <= 0 {
		return -1
	}
	return r.req.K
}

// newRequest builds a request over uniform task counts and the given
// weights.
func newRequest(weights []float64, seed int64) request {
	tasks := make([]int, len(weights))
	for j := range tasks {
		tasks[j] = tasksPerProc
	}
	in, err := lrp.NewInstance(tasks, weights)
	if err != nil {
		panic(err) // generated weights are always valid
	}
	return request{req: &serve.Request{Tasks: tasks, Weights: weights, Seed: seed}, in: in}
}

// served is one delivered plan as the caller saw it. latMs runs from
// sending POST /solve to reading the plan back over GET; postMs and
// getMs are the two HTTP round trips, queueWaitMs and jobWallMs what the
// job record reports.
type served struct {
	latMs, postMs, getMs, queueWaitMs, jobWallMs float64
	imbalance, speedup                           float64
}

// roundTrip submits r over HTTP, blocks on Server.Wait, reads the job
// back over GET and checks it: status done, the GET plan equal to the
// Wait snapshot, and verify.Plan against the benchmark's own instance
// and requested k.
func (st *stack) roundTrip(c *client, r request, rejected *atomic.Int64) (served, error) {
	body, err := json.Marshal(r.req)
	if err != nil {
		return served{}, err
	}
	start := time.Now()
	code, resp, err := c.do(http.MethodPost, "/solve", body)
	post := time.Since(start)
	if err != nil {
		return served{}, fmt.Errorf("POST /solve: %w", err)
	}
	if code != http.StatusAccepted {
		rejected.Add(1)
		return served{}, fmt.Errorf("POST /solve: status %d: %s", code, bytes.TrimSpace(resp))
	}
	var acc serve.Job
	if err := json.Unmarshal(resp, &acc); err != nil {
		return served{}, fmt.Errorf("POST /solve: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	waited, err := st.srv.Wait(ctx, acc.ID)
	cancel()
	if err != nil {
		return served{}, fmt.Errorf("job %s: wait: %w", acc.ID, err)
	}
	getStart := time.Now()
	code, resp, err = c.do(http.MethodGet, "/jobs/"+acc.ID, nil)
	get := time.Since(getStart)
	lat := time.Since(start)
	if err != nil {
		return served{}, fmt.Errorf("GET /jobs/%s: %w", acc.ID, err)
	}
	if code != http.StatusOK {
		return served{}, fmt.Errorf("GET /jobs/%s: status %d: %s", acc.ID, code, bytes.TrimSpace(resp))
	}
	var got serve.Job
	if err := json.Unmarshal(resp, &got); err != nil {
		return served{}, fmt.Errorf("GET /jobs/%s: %w", acc.ID, err)
	}
	if got.Status != serve.StatusDone || got.Metrics == nil {
		return served{}, fmt.Errorf("job %s: status %s: %s", acc.ID, got.Status, got.Error)
	}
	if !reflect.DeepEqual(got.Plan, waited.Plan) {
		return served{}, fmt.Errorf("job %s: plan over GET differs from the Server.Wait snapshot", acc.ID)
	}
	plan := &lrp.Plan{X: got.Plan}
	if rep := verify.Plan(r.in, plan, r.verifyK(), verify.Options{}); !rep.Ok() {
		return served{}, fmt.Errorf("job %s: plan fails verify.Plan: %w", acc.ID, rep.Err())
	}
	ev := lrp.Evaluate(r.in, plan)
	return served{
		latMs:       ms(lat),
		postMs:      ms(post),
		getMs:       ms(get),
		queueWaitMs: got.QueueWaitMs,
		jobWallMs:   got.Metrics.WallMs,
		imbalance:   ev.Imbalance,
		speedup:     ev.Speedup,
	}, nil
}

// drive runs the closed-loop clients against st for e.seconds and
// records every attempt in p. gen draws the next request.
func (st *stack) drive(e *env, p *phase, salt int64, gen func(*rand.Rand) request) *traffic {
	c := newClient(st.addr)
	defer c.tr.CloseIdleConnections()
	tr := &traffic{}
	start := time.Now()
	deadline := start.Add(e.seconds)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		rng := rand.New(rand.NewSource(e.seed*1_000_003 + salt*7919 + int64(i)))
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				s, err := st.roundTrip(c, gen(rng), &tr.rejected)
				p.mu.Lock()
				p.attempted++
				p.mu.Unlock()
				if err != nil {
					p.fail("%v", err)
					continue
				}
				p.mu.Lock()
				p.latMs = append(p.latMs, s.latMs)
				p.imbalance = append(p.imbalance, s.imbalance)
				p.speedup = append(p.speedup, s.speedup)
				tr.samples = append(tr.samples, s)
				p.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	tr.dials = c.dials.Load()
	if tr.dials > clients {
		p.fail("%d TCP dials for %d keep-alive clients", tr.dials, clients)
	}
	return tr
}

// traffic is what the clients saw beyond the end-to-end samples.
type traffic struct {
	rejected atomic.Int64
	dials    int64
	samples  []served
}

// warm submits in-process requests from every client until done
// reports true, checking each plan with verify.Plan.
func (st *stack) warm(seed int64, gen func(*rand.Rand) request, done func() bool) error {
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		rng := rand.New(rand.NewSource(seed + int64(i)))
		go func(i int) {
			defer wg.Done()
			for errs[i] == nil && !done() {
				errs[i] = st.submitWait(gen(rng))
			}
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// submitWait runs one request in-process and verifies its plan.
func (st *stack) submitWait(r request) error {
	acc, err := st.srv.Submit(r.req)
	if err != nil {
		return fmt.Errorf("warm-up submit: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	j, err := st.srv.Wait(ctx, acc.ID)
	if err != nil {
		return fmt.Errorf("warm-up job %s: %w", acc.ID, err)
	}
	if j.Status != serve.StatusDone {
		return fmt.Errorf("warm-up job %s: status %s: %s", j.ID, j.Status, j.Error)
	}
	if rep := verify.Plan(r.in, &lrp.Plan{X: j.Plan}, r.verifyK(), verify.Options{}); !rep.Ok() {
		return fmt.Errorf("warm-up job %s: plan fails verify.Plan: %w", j.ID, rep.Err())
	}
	return nil
}

// randomWeights draws m continuous weights in [1, 10).
func randomWeights(rng *rand.Rand, m int) []float64 {
	w := make([]float64, m)
	for j := range w {
		w[j] = 1 + 9*rng.Float64()
	}
	return w
}

// solveUnique: every request is a distinct M=16 instance, so the plan
// cache always misses and the solve path does the work.
func solveUnique(e *env, traced bool) (*phase, error) {
	gen := func(rng *rand.Rand) request {
		return newRequest(randomWeights(rng, 16), 1+rng.Int63n(1<<31))
	}
	p := &phase{}
	var st *stack
	for i := 0; i < setupTrials; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		// Set-up ends once the router is in steady state: it starts with
		// equal weights, so timing starts once every backend has been
		// picked and, warm returning only after its requests complete,
		// has answered.
		start := time.Now()
		var err error
		dir := filepath.Join(e.dir, fmt.Sprintf("solve-unique-%t-%d", traced, i))
		if st, err = openStack(stackConfig{dir: dir, policy: wal.SyncAlways, traced: traced}); err != nil {
			return nil, err
		}
		everyBackendPicked := func() bool {
			for _, t := range st.router.Tallies() {
				if t.Picks == 0 {
					return false
				}
			}
			return true
		}
		if err := st.warm(e.seed^0x5eed, gen, everyBackendPicked); err != nil {
			st.close()
			return nil, err
		}
		p.setup = append(p.setup, time.Since(start).Seconds())
	}
	defer st.close()
	return p, st.measure(e, p, 1, gen, nil)
}

// replayHits: four M=64 load vectors resubmitted under fresh
// permutations against a daemon recovered into steady state.
func replayHits(e *env, traced bool) (*phase, error) {
	rng := rand.New(rand.NewSource(e.seed))
	bases := make([][]float64, 4)
	for v := range bases {
		bases[v] = randomWeights(rng, 64)
	}
	gen := func(rng *rand.Rand) request {
		base := bases[rng.Intn(len(bases))]
		w := make([]float64, len(base))
		for j, src := range rng.Perm(len(base)) {
			w[j] = base[src]
		}
		return newRequest(w, 1+rng.Int63n(1<<31))
	}

	// The traced phase restarts over the journals the untraced phase
	// built.
	golden := filepath.Join(e.dir, "replay-golden")
	if _, err := os.Stat(golden); err != nil {
		if err := buildReplayJournals(golden, e.seed, bases, gen); err != nil {
			return nil, err
		}
	}
	p := &phase{}
	var st *stack
	for i := 0; i < setupTrials; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
		}
		dir := filepath.Join(e.dir, fmt.Sprintf("replay-hits-%t-%d", traced, i))
		if err := copyDir(golden, dir); err != nil {
			return nil, err
		}
		runtime.GC()
		start := time.Now()
		var err error
		if st, err = openStack(stackConfig{dir: dir, policy: wal.SyncAlways, traced: traced}); err != nil {
			return nil, err
		}
		p.setup = append(p.setup, time.Since(start).Seconds())
	}
	defer st.close()
	if h := st.srv.Health(); h.Jobs != retentionCap {
		return nil, fmt.Errorf("replay-hits: %d jobs retained after recovery, want the cap %d", h.Jobs, retentionCap)
	}
	if n := st.cache.Len(); n != len(bases) {
		return nil, fmt.Errorf("replay-hits: %d plan-cache entries after recovery, want %d", n, len(bases))
	}
	fmt.Printf("  recovery: %d jobs retained; plan cache kept %d journal records and rejected %d\n",
		st.srv.Health().Jobs, st.cacheKept, st.cacheRejected)
	return p, st.measure(e, p, 2, gen, func(d plancache.Stats) {
		if lookups := d.Hits + d.Misses + d.Rejects; d.Hits != lookups {
			p.fail("steady state lost: %d of %d plan-cache lookups hit in the timed phase", d.Hits, lookups)
		}
	})
}

// buildReplayJournals runs the seeded warm-up traffic once: each base
// vector is solved (a cache miss), then permuted resubmissions hit the
// cache until job retention has overflowed its cap. The journals are
// written without fsync or compaction; replay-hits restarts over copies
// of them. The daemon writing them routes to sa alone, at a fixed
// solver seed, so the cached plans, and the plan quality the timed
// phase serves, depend on --seed only and not on which backend the
// router happened to pick.
func buildReplayJournals(dir string, seed int64, bases [][]float64, gen func(*rand.Rand) request) error {
	st, err := openStack(stackConfig{dir: dir, policy: wal.SyncNone, compactBytes: 1 << 62, saOnly: true})
	if err != nil {
		return err
	}
	// The base solves get the largest budget the daemon allows, so sa
	// finishes its schedule instead of stopping at a deadline.
	errs := make([]error, len(bases))
	var wg sync.WaitGroup
	for v := range bases {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			r := newRequest(bases[v], 1)
			r.req.BudgetMs = int(maxBudget / time.Millisecond)
			errs[v] = st.submitWait(r)
		}(v)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		st.close()
		return err
	}
	var n atomic.Int64
	err = st.warm(seed^0x5eed, func(rng *rand.Rand) request {
		n.Add(1)
		return gen(rng)
	}, func() bool { return n.Load() >= retentionCap+64 })
	if cerr := st.close(); err == nil {
		err = cerr
	}
	return err
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if !ent.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// measure runs the timed phase on st and, when traced, fills p.layers.
// check, when non-nil, inspects the plan-cache counters of the timed
// phase.
func (st *stack) measure(e *env, p *phase, salt int64, gen func(*rand.Rand) request, check func(plancache.Stats)) error {
	st.resetTallies()
	regBefore := st.reg.Snapshot()
	cacheBefore := st.cache.Stats()
	picksBefore := map[string]int64{}
	for _, t := range st.router.Tallies() {
		picksBefore[t.Backend] = t.Picks
	}
	tr := st.drive(e, p, salt, gen)
	// Drain so the journal work of the last jobs lands in the tallies.
	if err := st.close(); err != nil {
		return err
	}
	cacheAfter := st.cache.Stats()
	d := plancache.Stats{
		Hits:      cacheAfter.Hits - cacheBefore.Hits,
		Misses:    cacheAfter.Misses - cacheBefore.Misses,
		Rejects:   cacheAfter.Rejects - cacheBefore.Rejects,
		Evictions: cacheAfter.Evictions - cacheBefore.Evictions,
	}
	if check != nil {
		check(d)
	}
	if st.http == nil {
		return nil
	}

	n := float64(p.delivered())
	if n == 0 {
		n = 1
	}
	band := medianBand(tr.samples)
	vals := map[string]float64{
		"serve.post_ms":       band.postMs,
		"serve.get_ms":        band.getMs,
		"serve.resp_bytes":    float64(st.http.bytes.Load()) / n,
		"serve.queue_wait_ms": band.queueWaitMs,
		"serve.job_wall_ms":   band.jobWallMs,
		"serve.dials":         float64(tr.dials),
		"serve.rejected":      float64(tr.rejected.Load()),

		"plancache.rejects":   float64(d.Rejects),
		"plancache.evictions": float64(d.Evictions),

		"wal.serve.appends_per_req":     float64(st.serveWAL.appends.Load()) / n,
		"wal.serve.append_s":            time.Duration(st.serveWAL.appendNs.Load()).Seconds(),
		"wal.serve.compactions_per_req": float64(st.serveWAL.compactions.Load()) / n,
		"wal.serve.compact_s":           time.Duration(st.serveWAL.compactNs.Load()).Seconds(),
		"wal.plancache.appends":         float64(st.cacheWAL.appends.Load()),
		"wal.plancache.append_s":        time.Duration(st.cacheWAL.appendNs.Load()).Seconds(),

		"route.solve_ms": st.routeTally.medianMs(),
	}
	if lookups := d.Hits + d.Misses + d.Rejects; lookups > 0 {
		vals["plancache.hit_ratio"] = float64(d.Hits) / float64(lookups)
	}
	if c := st.serveWAL.compactions.Load(); c > 0 {
		vals["wal.serve.snapshot_bytes"] = float64(st.serveWAL.snapByt.Load()) / float64(c)
	}
	for _, t := range st.router.Tallies() {
		vals["route.picks."+t.Backend] = float64(t.Picks - picksBefore[t.Backend])
	}
	for name, t := range st.backends {
		calls := float64(t.calls.Load())
		vals[name+".calls"] = calls
		vals[name+".busy_s"] = time.Duration(t.busyNs.Load()).Seconds()
		vals[name+".interrupted"] = float64(t.interrupted.Load())
		if calls > 0 {
			vals[name+".flips_per_call"] = float64(t.flips.Load()) / calls
		}
	}
	qlrbLayer(regDelta{regBefore, st.reg.Snapshot()}, vals)

	// The budget: the blocking steps of a request at the median latency.
	lat := median(p.latMs)
	sum := vals["serve.post_ms"] + vals["serve.queue_wait_ms"] + vals["serve.job_wall_ms"] + vals["serve.get_ms"]
	vals["budget.residual_frac"] = (lat - sum) / lat
	fmt.Printf("  budget: post %.3f + queue_wait %.3f + job_wall %.3f + get %.3f = %.3f ms vs latency_p50 %.3f ms; residual %.3f ms (%.1f%%) %s\n",
		vals["serve.post_ms"], vals["serve.queue_wait_ms"], vals["serve.job_wall_ms"], vals["serve.get_ms"],
		sum, lat, lat-sum, 100*(lat-sum)/lat, budgetVerdict(vals["budget.residual_frac"]))
	p.layers = layerMetrics(vals)
	return nil
}

// medianBand averages the samples whose latency lies between the 45th
// and the 55th percentile: the breakdown of a request at the median
// latency. Its four steps add up to latency_p50_ms even when each step
// on its own is bimodal (a median per step would not).
func medianBand(samples []served) served {
	s := append([]served(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i].latMs < s[j].latMs })
	lo := len(s) * 45 / 100
	hi := max(lo+1, (len(s)*55+99)/100)
	var b served
	if len(s) == 0 {
		return b
	}
	for _, x := range s[lo:hi] {
		b.latMs += x.latMs
		b.postMs += x.postMs
		b.getMs += x.getMs
		b.queueWaitMs += x.queueWaitMs
		b.jobWallMs += x.jobWallMs
	}
	n := float64(hi - lo)
	b.latMs /= n
	b.postMs /= n
	b.getMs /= n
	b.queueWaitMs /= n
	b.jobWallMs /= n
	return b
}

// budgetVerdict says whether a residual share is within budgetTolerance.
func budgetVerdict(frac float64) string {
	if math.Abs(frac) <= budgetTolerance {
		return fmt.Sprintf("within the %.0f%% tolerance", 100*budgetTolerance)
	}
	return fmt.Sprintf("OUTSIDE the %.0f%% tolerance", 100*budgetTolerance)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
