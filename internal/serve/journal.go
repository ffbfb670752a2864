// Job-lifecycle durability: the server journals every lifecycle
// transition (accept → run → done/failed/rejected, plus retention
// evictions) as one self-contained JSON record through a
// caller-supplied Journal — in production a *wal.Log. On startup the
// daemon replays the journal into Options.Recover and the server
// rebuilds itself:
//
//   - Terminal jobs inside the retention window are restored as
//     queryable history. A restored done-plan is re-verified with
//     verify.Plan before it is trusted; a plan that fails (disk
//     corruption the WAL's CRC could not see, or a config change that
//     invalidates it) demotes the job to unfinished and it re-runs —
//     corrupt state is re-solved, never served.
//   - Accepted-but-unfinished jobs (queued or running at the crash)
//     are re-enqueued with a fresh deadline, idempotently by job id,
//     and marked Recovered in their snapshots. Re-admission respects
//     tenant solve budgets, which are themselves replayed from the
//     wall time of completed work.
//   - Evicted ids are remembered (bounded), so a lookup of a job that
//     existed-but-aged-out keeps answering ErrEvicted (HTTP 410)
//     across restarts instead of decaying to a 404.
//
// Journal failures never fail the serving path: they are counted
// (serve.journal_errors) and the server keeps answering. Durability
// degrades; correctness does not.
package serve

import (
	"encoding/json"
	"errors"
	"strconv"
	"time"

	"repro/internal/lrp"
	"repro/internal/verify"
)

// journalVersion guards the record schema; bump on incompatible change.
const journalVersion = 1

// maxEvictedTracked bounds the remembered-evictions set; beyond it the
// oldest evicted ids decay to plain ErrUnknownJob (404).
const maxEvictedTracked = 4096

// Journal receives one encoded record per lifecycle transition.
// *wal.Log satisfies it. Append must be safe for concurrent use and
// must not call back into the server.
type Journal interface {
	Append(rec []byte) error
}

// Compactor is the optional snapshot-compaction side of a Journal:
// when the configured Journal implements it, the server rewrites the
// journal as a snapshot of its retained state whenever CompactDue
// reports true after a terminal transition. *wal.Log satisfies it.
type Compactor interface {
	CompactDue() bool
	Compact(records [][]byte) error
}

// Journal record ops.
const (
	opAccept = "accept"
	opRun    = "run"
	opDone   = "done"
	opFail   = "fail"
	opReject = "reject"
	opEvict  = "evict"
)

// journalRecord is the on-disk schema. Every record carries the job
// id; accept additionally carries everything needed to re-create the
// job (the validated request and its clamped budget), and terminal
// records carry the outcome.
type journalRecord struct {
	V        int      `json:"v"`
	Op       string   `json:"op"`
	ID       string   `json:"id"`
	Req      *Request `json:"req,omitempty"`
	BudgetMs int64    `json:"budget_ms,omitempty"`
	Plan     [][]int  `json:"plan,omitempty"`
	Metrics  *Metrics `json:"metrics,omitempty"`
	Err      string   `json:"err,omitempty"`
}

// journal appends one record, counting (never surfacing) failures.
func (s *Server) journal(rec journalRecord) {
	if s.opt.Journal == nil {
		return
	}
	rec.V = journalVersion
	b, err := json.Marshal(rec)
	if err != nil {
		s.obs.Counter("serve.journal_errors").Inc()
		return
	}
	if err := s.opt.Journal.Append(b); err != nil {
		s.obs.Counter("serve.journal_errors").Inc()
	}
}

// journalTerminal records a job's terminal transition. finish calls it
// before publishing the terminal state, so no client can observe a
// state a crash could take back. Called without s.mu held.
func (s *Server) journalTerminal(j *job, st Status, plan *lrp.Plan, m *Metrics, err error) {
	if s.opt.Journal == nil {
		return
	}
	rec := journalRecord{ID: j.id, Metrics: m}
	switch st {
	case StatusDone:
		rec.Op = opDone
		if plan != nil {
			rec.Plan = plan.X
		}
	case StatusRejected:
		rec.Op = opReject
	default:
		rec.Op = opFail
	}
	if err != nil {
		rec.Err = err.Error()
	}
	s.journal(rec)
}

// maybeCompactJournal rewrites the journal as a snapshot of retained
// state when the journal reports compaction due. Lock order: s.mu,
// then each job's mu — matching evictLocked.
func (s *Server) maybeCompactJournal() {
	comp, ok := s.opt.Journal.(Compactor)
	if !ok || !comp.CompactDue() {
		return
	}
	s.mu.Lock()
	snap := s.snapshotJournalLocked()
	s.mu.Unlock()
	if err := comp.Compact(snap); err != nil {
		s.obs.Counter("serve.journal_errors").Inc()
		return
	}
	s.obs.Counter("serve.journal_compactions").Inc()
}

// snapshotJournalLocked re-encodes the retained state: one accept per
// live job (terminal jobs also get their terminal record) plus the
// remembered evictions. Replaying the snapshot reconstructs the same
// server state the long journal would have.
func (s *Server) snapshotJournalLocked() [][]byte {
	var records [][]byte
	add := func(rec journalRecord) {
		rec.V = journalVersion
		if b, err := json.Marshal(rec); err == nil {
			records = append(records, b)
		}
	}
	for _, id := range s.evictOrder {
		add(journalRecord{Op: opEvict, ID: id})
	}
	for _, id := range s.order {
		j := s.jobs[id]
		if j == nil {
			continue
		}
		add(journalRecord{
			Op: opAccept, ID: j.id, Req: j.req,
			BudgetMs: int64(j.budget / time.Millisecond),
		})
		j.mu.Lock()
		st, plan, m, jerr := j.status, j.plan, j.metrics, j.err
		j.mu.Unlock()
		rec := journalRecord{ID: j.id, Metrics: m}
		switch st {
		case StatusDone:
			rec.Op = opDone
			if plan != nil {
				rec.Plan = plan.X
			}
		case StatusFailed:
			rec.Op = opFail
		case StatusRejected:
			rec.Op = opReject
		default:
			continue // queued/running: the accept alone re-enqueues it
		}
		if jerr != nil {
			rec.Err = jerr.Error()
		}
		add(rec)
	}
	return records
}

// rememberEvictedLocked adds id to the bounded evicted-ids memory.
func (s *Server) rememberEvictedLocked(id string) {
	if s.evicted == nil {
		s.evicted = make(map[string]struct{})
	}
	if _, ok := s.evicted[id]; ok {
		return
	}
	s.evicted[id] = struct{}{}
	s.evictOrder = append(s.evictOrder, id)
	for len(s.evictOrder) > maxEvictedTracked {
		delete(s.evicted, s.evictOrder[0])
		s.evictOrder = s.evictOrder[1:]
	}
}

// recover rebuilds server state from replayed journal records. Called
// from New before any worker starts, so it runs single-threaded; it
// returns the jobs to re-enqueue (in acceptance order) and leaves
// s.jobs / s.order / s.tenants / s.evicted / s.nextID reflecting the
// pre-crash server. The caller sizes the queue to fit the returned
// jobs before starting workers.
func (s *Server) recover(records [][]byte) []*job {
	accepts := make(map[string]*journalRecord)
	terms := make(map[string]*journalRecord)
	evicted := make(map[string]bool)
	var order []string
	dropped := 0
	for _, raw := range records {
		var rec journalRecord
		if err := json.Unmarshal(raw, &rec); err != nil || rec.V != journalVersion || rec.ID == "" {
			dropped++
			continue
		}
		switch rec.Op {
		case opAccept:
			if rec.Req == nil {
				dropped++
				continue
			}
			if accepts[rec.ID] == nil {
				order = append(order, rec.ID)
			}
			r := rec
			accepts[rec.ID] = &r
		case opRun:
			// Presence only: a job running at the crash is unfinished.
		case opDone, opFail, opReject:
			r := rec
			terms[rec.ID] = &r // last terminal record wins
		case opEvict:
			evicted[rec.ID] = true
		default:
			dropped++
		}
		if n, err := strconv.ParseInt(trimJobPrefix(rec.ID), 10, 64); err == nil && n > s.nextID {
			s.nextID = n
		}
	}

	now := s.clock.Now()
	var requeue []*job
	for _, id := range order {
		if evicted[id] {
			continue // fell out of retention pre-crash; remembered below
		}
		acc := accepts[id]
		j, err := s.rebuildJob(id, acc, now)
		if err != nil {
			dropped++
			continue
		}
		term := terms[id]
		if term != nil && s.restoreTerminal(j, term) {
			s.obs.Counter("serve.recovery_restored").Inc()
		} else {
			if term != nil {
				// A done record whose plan no longer verifies: re-solve
				// rather than serve corrupt state.
				s.obs.Counter("serve.recovery_corrupt").Inc()
			}
			requeue = append(requeue, j)
		}
		s.jobs[id] = j
		s.order = append(s.order, id)
	}
	for id := range evicted {
		s.rememberEvictedLocked(id)
	}

	// Re-admission respects the replayed tenant budgets: a tenant whose
	// completed work already exhausted its budget gets its unfinished
	// jobs failed, not silently re-run.
	admitted := requeue[:0]
	for _, j := range requeue {
		t := s.tenants[j.tenant]
		if s.opt.TenantBudget > 0 && t != nil && t.used >= s.opt.TenantBudget {
			s.finish(j, StatusFailed, nil, nil, ErrBudgetExhausted)
			continue
		}
		s.obs.Counter("serve.recovered").Inc()
		admitted = append(admitted, j)
	}
	if dropped > 0 {
		s.obs.Counter("serve.recovery_dropped").Add(int64(dropped))
	}
	return admitted
}

// rebuildJob reconstructs a job record from its accept record. The
// request is re-validated against the *current* limits, so a journal
// from a laxer configuration cannot smuggle in an oversized instance.
func (s *Server) rebuildJob(id string, acc *journalRecord, now time.Time) (*job, error) {
	req := acc.Req
	if err := req.Validate(s.opt.Limits); err != nil {
		return nil, err
	}
	in, budget, err := s.buildInstance(req)
	if err != nil {
		return nil, err
	}
	if acc.BudgetMs > 0 {
		if b := time.Duration(acc.BudgetMs) * time.Millisecond; b <= s.opt.MaxBudget {
			budget = b
		}
	}
	return &job{
		id: id, tenant: req.Tenant, req: req, in: in,
		submitted: now, deadline: now.Add(budget), budget: budget,
		done: make(chan struct{}), status: StatusQueued, recovered: true,
	}, nil
}

// restoreTerminal applies a terminal record to j, reporting whether it
// could be trusted. Done-plans re-pass verify.Plan first; failed and
// rejected outcomes restore as recorded. Restored wall time burns the
// tenant's replayed budget.
func (s *Server) restoreTerminal(j *job, term *journalRecord) bool {
	switch term.Op {
	case opDone:
		m := len(j.in.Tasks)
		if len(term.Plan) != m {
			return false
		}
		for i := range term.Plan {
			if len(term.Plan[i]) != m {
				return false
			}
		}
		plan := &lrp.Plan{X: term.Plan}
		if !verify.Plan(j.in, plan, j.req.k(), s.opt.Verify).Ok() {
			return false
		}
		j.status = StatusDone
		j.plan = plan
		j.metrics = term.Metrics
		if term.Metrics != nil {
			s.burnTenant(j.tenant, time.Duration(term.Metrics.WallMs*float64(time.Millisecond)))
		}
	case opFail:
		j.status = StatusFailed
		j.err = errors.New(term.Err)
		if term.Metrics != nil {
			s.burnTenant(j.tenant, time.Duration(term.Metrics.WallMs*float64(time.Millisecond)))
		}
	case opReject:
		j.status = StatusRejected
		j.err = errors.New(term.Err)
	default:
		return false
	}
	close(j.done)
	return true
}

// burnTenant charges replayed solve time against a tenant's budget.
func (s *Server) burnTenant(name string, wall time.Duration) {
	if wall <= 0 {
		return
	}
	t := s.tenants[name]
	if t == nil {
		t = &tenant{tokens: s.opt.Burst, last: s.clock.Now()}
		s.tenants[name] = t
	}
	t.used += wall
}

// trimJobPrefix strips the job-id prefix for nextID resumption; a
// malformed id simply fails the ParseInt that follows.
func trimJobPrefix(id string) string {
	if len(id) > 1 && id[0] == 'j' {
		return id[1:]
	}
	return id
}
