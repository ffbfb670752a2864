// Command qulrbd is the rebalancing-as-a-service daemon: a stdlib-only
// HTTP/JSON server that accepts LRP instances, solves them through the
// failure-aware router over the repository's solver backends, verifies
// every plan, and serves job status and metrics.
//
//	qulrbd -addr :8080 -backends sa,tabu,exact
//
// API:
//
//	GET  /healthz   liveness (503 while draining)
//	POST /solve     submit {"tasks":[4,4,4],"weights":[8,2,2],...} → 202 {job}
//	GET  /jobs/{id} job status, plan and metrics when done
//	GET  /metrics   plain-text metric snapshot
//
// Admission is bounded (429 on queue/rate/budget overload), and SIGINT/
// SIGTERM triggers a graceful drain: in-flight solves finish, queued
// and new work is rejected, observability state is flushed, then the
// process exits 0.
//
// With -state-dir the daemon is crash-safe: every job transition and
// every verified cache entry is journaled to a CRC-framed WAL in that
// directory, and a restart on the same directory restores finished
// jobs (re-verified before they are served) and re-enqueues the work
// a kill -9 interrupted. -fsync picks the durability/latency trade
// (always, interval, none).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/batch"
	"repro/internal/exact"
	"repro/internal/faults"
	"repro/internal/hybrid"
	"repro/internal/obs"
	"repro/internal/plancache"
	"repro/internal/quantum"
	"repro/internal/route"
	"repro/internal/sa"
	"repro/internal/serve"
	"repro/internal/shutdown"
	"repro/internal/solve"
	"repro/internal/tabu"
	"repro/internal/wal"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "qulrbd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address")
		backends     = flag.String("backends", "sa,tabu,exact", "comma-separated solver backends: sa,tabu,exact,hybrid,quantum")
		queueDepth   = flag.Int("queue", 64, "job queue depth (admission bound)")
		workers      = flag.Int("workers", 2, "concurrent solve workers")
		rate         = flag.Float64("rate", 10, "per-tenant admission rate (requests/sec; 0 disables)")
		burst        = flag.Float64("burst", 0, "per-tenant burst capacity (0 = 2x rate)")
		tenantBudget = flag.Duration("tenant-budget", 0, "cumulative per-tenant solve budget (0 = unlimited)")
		timeout      = flag.Duration("timeout", 2*time.Second, "default per-request solve budget")
		maxBudget    = flag.Duration("max-budget", 10*time.Second, "cap on any requested solve budget")
		maxProcs     = flag.Int("max-procs", 64, "largest accepted instance size M")
		sweeps       = flag.Int("sweeps", 400, "annealing sweeps for the sa/hybrid backends")
		seed         = flag.Int64("seed", 1, "base seed for the stochastic backends")
		faultRate    = flag.Float64("fault-rate", 0, "injected fault rate on the hybrid backend (testing)")
		drainWait    = flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight solves on shutdown")
		batchSize    = flag.Int("batch", 0, "coalesce up to N concurrent requests per hybrid cloud submission (0 disables batching)")
		batchWait    = flag.Duration("batch-wait", batch.DefaultMaxWait, "max time a request waits for its batch to fill")
		cacheCap     = flag.Int("cache", 0, "verified plan cache capacity in entries (0 disables caching)")
		cacheEps     = flag.Float64("cache-eps", plancache.DefaultEpsilon, "load quantization epsilon for cache fingerprints")
		stateDir     = flag.String("state-dir", "", "durable state directory: job journal + plan-cache snapshot survive restarts (empty disables durability)")
		fsyncPolicy  = flag.String("fsync", "always", "WAL sync policy: always, interval, none")
	)
	flag.Parse()

	reg := obs.NewRegistry()
	solvers, closeBackends, err := buildBackends(*backends, *sweeps, *seed, *faultRate, *batchSize, *batchWait, reg)
	if err != nil {
		return err
	}
	defer closeBackends()
	router, err := route.New(route.Options{Obs: reg, Name: "qulrbd"}, solvers...)
	if err != nil {
		return err
	}
	// Durable state: with -state-dir the job lifecycle is journaled to a
	// CRC-framed WAL (unfinished jobs re-enqueue on restart, finished
	// ones are restored and re-verified) and the plan cache snapshots
	// its verified entries alongside it.
	var (
		serveLog, cacheLog   *wal.Log
		serveRecs, cacheRecs [][]byte
	)
	if *stateDir != "" {
		pol, err := wal.ParseSyncPolicy(*fsyncPolicy)
		if err != nil {
			return err
		}
		if serveLog, serveRecs, err = wal.Open(wal.Options{
			Dir: *stateDir, Name: "serve", Policy: pol, Obs: reg,
		}); err != nil {
			return fmt.Errorf("job journal: %w", err)
		}
		defer serveLog.Close() //nolint:errcheck — closed explicitly after drain
		if *cacheCap > 0 {
			if cacheLog, cacheRecs, err = wal.Open(wal.Options{
				Dir: *stateDir, Name: "plancache", Policy: pol, Obs: reg,
			}); err != nil {
				return fmt.Errorf("plan-cache journal: %w", err)
			}
			defer cacheLog.Close() //nolint:errcheck
		}
	}

	var cache *plancache.Cache
	if *cacheCap > 0 {
		cfg := plancache.Config{Capacity: *cacheCap, Epsilon: *cacheEps, Obs: reg}
		if cacheLog != nil {
			cfg.Journal = cacheLog
		}
		cache = plancache.New(cfg)
		if len(cacheRecs) > 0 {
			kept, rejected := cache.Load(cacheRecs)
			fmt.Printf("qulrbd: plan cache restored %d entries (%d rejected)\n", kept, rejected)
		}
	}
	opts := serve.Options{
		Cache:         cache,
		Backend:       router,
		Obs:           reg,
		QueueDepth:    *queueDepth,
		Workers:       *workers,
		Rate:          *rate,
		Burst:         *burst,
		NoRateLimit:   *rate <= 0,
		TenantBudget:  *tenantBudget,
		DefaultBudget: *timeout,
		MaxBudget:     *maxBudget,
		Limits:        serve.Limits{MaxProcs: *maxProcs},
	}
	if serveLog != nil {
		opts.Journal = serveLog
		opts.Recover = serveRecs
	}
	s, err := serve.New(opts)
	if err != nil {
		return err
	}
	if n := len(serveRecs); n > 0 {
		fmt.Printf("qulrbd: recovered %d journal records (%d jobs re-queued)\n",
			n, reg.Counter("serve.recovered").Value())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: serve.Handler(s)}

	ctx, stop := shutdown.Context(context.Background())
	defer stop()

	errc := make(chan error, 1)
	go func() {
		if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	names := make([]string, len(solvers))
	for i, sv := range solvers {
		names[i] = sv.Name()
	}
	fmt.Printf("qulrbd: listening on http://%s (backends %s)\n", ln.Addr(), strings.Join(names, ","))

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal now force-kills via the default disposition

	fmt.Println("qulrbd: draining...")
	dctx, dcancel := context.WithTimeout(context.Background(), *drainWait)
	defer dcancel()
	// Stop accepting connections first, then drain the solve queue.
	if err := httpSrv.Shutdown(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "qulrbd: http shutdown:", err)
	}
	if err := s.Drain(dctx); err != nil {
		return err
	}
	fmt.Println("qulrbd: drained cleanly")
	return nil
}

// buildBackends assembles the requested solver set and returns a
// cleanup that releases whatever the backends own (the batching
// coalescer and its cloud client). The quantum engine is Serialized
// for the serving context (its diagnostics are not synchronized); like
// exact, it refuses models outside its range itself (solve.ErrTooLarge),
// so the router fails those over.
// With -batch > 0 the hybrid backend is fronted by a request coalescer:
// up to batchSize concurrent solves ride one cloud submission, and a
// lone request waits at most batchWait before its batch flushes.
func buildBackends(list string, sweeps int, seed int64, faultRate float64, batchSize int, batchWait time.Duration, reg *obs.Registry) ([]solve.Solver, func(), error) {
	var out []solve.Solver
	var closers []func()
	closeAll := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	for _, name := range strings.Split(list, ",") {
		switch strings.TrimSpace(strings.ToLower(name)) {
		case "":
		case "sa":
			out = append(out, &sa.Engine{Base: sa.Options{
				Sweeps: sweeps, Penalty: 5, PenaltyGrowth: 4, Seed: seed,
			}})
		case "tabu":
			out = append(out, tabu.NewEngine())
		case "exact":
			out = append(out, exact.NewEngine())
		case "hybrid":
			opt := hybrid.Options{Reads: 2, Sweeps: sweeps, Seed: seed + 1}
			if faultRate > 0 {
				opt.Faults = faults.NewInjector(faults.Chaos(seed, faultRate))
			}
			if batchSize > 0 {
				client := hybrid.NewClient(opt)
				co := batch.New(batch.Config{
					Client: client, MaxBatch: batchSize, MaxWait: batchWait, Obs: reg,
				})
				closers = append(closers, client.Close, co.Close)
				out = append(out, co)
			} else {
				out = append(out, hybrid.New(opt))
			}
		case "quantum":
			out = append(out, route.Serialized(quantum.NewEngine()))
		default:
			closeAll()
			return nil, nil, fmt.Errorf("unknown backend %q (want sa, tabu, exact, hybrid, quantum)", name)
		}
	}
	if len(out) == 0 {
		return nil, nil, errors.New("no backends selected")
	}
	return out, closeAll, nil
}
