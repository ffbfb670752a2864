package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/exact"
	"repro/internal/obs"
	"repro/internal/plancache"
	"repro/internal/route"
	"repro/internal/sa"
	"repro/internal/serve"
	"repro/internal/solve"
	"repro/internal/tabu"
	"repro/internal/wal"
)

const (
	// retentionCap is serve.Options.MaxJobs' default, which qulrbd keeps.
	retentionCap = 1024
	// maxBudget is qulrbd's -max-budget default.
	maxBudget = 10 * time.Second
)

// stackConfig selects the durability settings of one daemon.
type stackConfig struct {
	dir    string
	policy wal.SyncPolicy
	// compactBytes overrides wal.Options.CompactBytes (0 keeps the
	// default qulrbd runs with).
	compactBytes int64
	// saOnly routes to the sa backend alone (the replay-hits journal
	// writer, whose cached plans must be a function of the seed).
	saOnly bool
	traced bool
}

// stack is one qulrbd process, assembled from the same constructors and
// option values cmd/qulrbd uses for
// `-backends sa,tabu,exact -cache 256 -state-dir D -rate 0`.
type stack struct {
	reg                *obs.Registry
	router             *route.Router
	cache              *plancache.Cache
	serveLog, cacheLog *wal.Log
	srv                *serve.Server
	httpSrv            *http.Server
	addr               string
	served             chan error

	cacheKept, cacheRejected int // plan-cache journal records on recovery

	// Traced phase only.
	http               *httpTally
	serveWAL, cacheWAL *logTally
	backends           map[string]*solverTally
	routeTally         *solverTally
}

// openStack starts a daemon over cfg.dir, recovering whatever journals
// the directory holds, and listens on a loopback port.
func openStack(cfg stackConfig) (st *stack, err error) {
	st = &stack{reg: obs.NewRegistry()}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	var serveRecs, cacheRecs [][]byte
	open := func(name string) (*wal.Log, [][]byte, error) {
		return wal.Open(wal.Options{
			Dir: cfg.dir, Name: name, Policy: cfg.policy, CompactBytes: cfg.compactBytes, Obs: st.reg,
		})
	}
	if st.serveLog, serveRecs, err = open("serve"); err != nil {
		return st, fmt.Errorf("job journal: %w", err)
	}
	if st.cacheLog, cacheRecs, err = open("plancache"); err != nil {
		return st, fmt.Errorf("plan-cache journal: %w", err)
	}
	var serveJ, cacheJ journal = st.serveLog, st.cacheLog
	solvers := []solve.Solver{
		&sa.Engine{Base: sa.Options{Sweeps: 400, Penalty: 5, PenaltyGrowth: 4, Seed: 1}},
		tabu.NewEngine(),
		exact.NewEngine(),
	}
	if cfg.saOnly {
		solvers = solvers[:1]
	}
	if cfg.traced {
		st.http, st.serveWAL, st.cacheWAL = &httpTally{}, &logTally{}, &logTally{}
		st.routeTally = &solverTally{}
		st.backends = map[string]*solverTally{}
		serveJ, cacheJ = traceJournal(serveJ, st.serveWAL), traceJournal(cacheJ, st.cacheWAL)
		for i, s := range solvers {
			t := &solverTally{}
			st.backends[s.Name()] = t
			solvers[i] = traceSolver(s, t)
		}
	}
	if st.router, err = route.New(route.Options{Obs: st.reg, Name: "qulrbd"}, solvers...); err != nil {
		return st, err
	}
	st.cache = plancache.New(plancache.Config{
		Capacity: 256, Epsilon: plancache.DefaultEpsilon, Obs: st.reg, Journal: cacheJ,
	})
	// qulrbd opens both journals in -state-dir, where they share one
	// segment file: each replays the other's records too, and Load
	// rejects the job records it is handed.
	st.cacheKept, st.cacheRejected = st.cache.Load(cacheRecs)
	var backend solve.Solver = st.router
	if cfg.traced {
		backend = traceSolver(backend, st.routeTally)
	}
	if st.srv, err = serve.New(serve.Options{
		Cache:         st.cache,
		Backend:       backend,
		Obs:           st.reg,
		QueueDepth:    64,
		Workers:       2,
		NoRateLimit:   true,
		DefaultBudget: 2 * time.Second,
		MaxBudget:     maxBudget,
		Limits:        serve.Limits{MaxProcs: 64},
		Journal:       serveJ,
		Recover:       serveRecs,
	}); err != nil {
		return st, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return st, err
	}
	st.addr = ln.Addr().String()
	var h http.Handler = serve.Handler(st.srv)
	if cfg.traced {
		h = st.http.wrap(h)
	}
	st.httpSrv = &http.Server{Handler: h}
	st.served = make(chan error, 1)
	go func() { st.served <- st.httpSrv.Serve(ln) }()
	return st, nil
}

// resetTallies zeroes the traced-phase wrappers at timing start.
func (st *stack) resetTallies() {
	if st.http == nil {
		return
	}
	st.http.bytes.Store(0)
	st.serveWAL.reset()
	st.cacheWAL.reset()
	st.routeTally.reset()
	for _, t := range st.backends {
		t.reset()
	}
}

// close shuts the daemon down the way qulrbd does on SIGTERM: stop
// accepting connections, drain the solve queue, close the journals.
func (st *stack) close() error {
	var errs []error
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if st.httpSrv != nil {
		errs = append(errs, st.httpSrv.Shutdown(ctx))
		if err := <-st.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		st.httpSrv = nil
	}
	if st.srv != nil {
		errs = append(errs, st.srv.Drain(ctx))
		st.srv = nil
	}
	for _, l := range []*wal.Log{st.serveLog, st.cacheLog} {
		if l != nil {
			errs = append(errs, l.Close())
		}
	}
	st.serveLog, st.cacheLog = nil, nil
	return errors.Join(errs...)
}
