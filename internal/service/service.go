// Package service implements omegad: the long-lived scan service the
// cmd/omegad binary serves. It owns the job machinery behind the
// versioned HTTP API of package api — a bounded admission queue, a
// priority-aware worker pool dispatching through a job-kind executor
// table (scan, batch, stream), a pluggable storage layer (package
// store) holding job records, content-addressed results and dataset
// blobs, per-tenant quota accounting, optional bearer-token auth, and
// live job progress via the obs observer layer. A durable store makes
// the service restartable: startup recovery reloads history,
// re-enqueues queued jobs and marks interrupted ones. docs/API.md is
// the normative endpoint reference; ARCHITECTURE.md §2.7 the data
// flow.
package service

import (
	"context"
	"fmt"
	"log"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"omegago"
	"omegago/api"
	"omegago/internal/obs"
	"omegago/internal/service/store"
)

// Config configures a Service. The zero value serves with the
// defaults noted per field.
type Config struct {
	// Workers is the scan worker-pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the jobs admitted but not yet running; a full
	// queue rejects submissions with HTTP 429 (default 64).
	QueueDepth int
	// CacheEntries bounds the in-memory result cache when the service
	// builds its own MemStore (default 128; < 0 disables caching).
	// Ignored when Store is supplied.
	CacheEntries int
	// TenantJobs bounds one tenant's queued+running jobs
	// (0 = unlimited).
	TenantJobs int
	// DefaultDeadline bounds a job's run time when the request names no
	// deadline_seconds (0 = unlimited).
	DefaultDeadline time.Duration
	// MaxBodyBytes bounds a request body, uploads included
	// (default 64 MiB).
	MaxBodyBytes int64
	// AllowPaths permits dataset references by server-local path.
	// Off by default: a path reference reads the server's filesystem,
	// so the operator must opt in (omegad -allow-paths).
	AllowPaths bool
	// Registry receives the service and scan metrics (nil = a fresh
	// registry, exposed at /metrics either way).
	Registry *obs.Registry
	// Store is the storage backend for job records, results and dataset
	// blobs. Nil builds an in-memory store (nothing survives a
	// restart); a durable store (store.NewFS) additionally triggers
	// startup recovery. The service takes ownership and closes it.
	Store store.Store
	// DatasetCacheBytes caps the resident dataset cache of the store
	// the service builds when Store is nil (0 = 256 MiB; < 0 =
	// unlimited). Ignored when Store is supplied — the store was built
	// with its own cap.
	DatasetCacheBytes int64
	// AuthTokens, when non-empty, requires every /v1 request to carry
	// "Authorization: Bearer <token>" matching one of the entries.
	// /healthz and /metrics stay open for probes and scrapers.
	AuthTokens []string

	// scanFunc, when non-nil, replaces the scan executor's engine call.
	// Test seam only: it must be set at construction because recovery
	// can start re-enqueued jobs before New returns, so a later swap of
	// Service.scanFunc would race with a running worker.
	scanFunc func(ctx context.Context, ds *omegago.Dataset, cfg omegago.Config) (*omegago.Report, error)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 128
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.DatasetCacheBytes == 0 {
		c.DatasetCacheBytes = 256 << 20
	} else if c.DatasetCacheBytes < 0 {
		c.DatasetCacheBytes = 0 // store convention: ≤ 0 = unlimited
	}
	return c
}

// queue indices, in drain-preference order.
const (
	qHigh = iota
	qNormal
	qLow
	numQueues
)

func queueIndex(priority string) int {
	switch priority {
	case api.PriorityHigh:
		return qHigh
	case api.PriorityLow:
		return qLow
	default:
		return qNormal
	}
}

// Service is one omegad instance: jobs, queues, workers, storage, and
// the HTTP handler over them. Create with New, serve Handler, stop
// with Close (or Drain for a graceful window).
type Service struct {
	cfg   Config
	reg   *obs.Registry
	met   *obs.Metrics
	sm    *obs.StoreMetrics
	store store.Store

	mu      sync.Mutex
	jobs    map[string]*job
	order   []string // job IDs in submission order, for listing
	nextID  int
	queued  int // admitted, not yet picked by a worker
	tenants map[string]int

	queues [numQueues]chan *job

	ctx      context.Context
	cancel   context.CancelFunc
	wg       sync.WaitGroup
	draining atomic.Bool // admission stopped (Drain or Close)
	stopping atomic.Bool // Close entered: running jobs end interrupted

	// scanFunc / batchFunc / streamFunc run one job of each kind; tests
	// interpose deterministic stand-ins (slow scans for queue-full,
	// failing scans for error mapping, gated scans for restart tests).
	scanFunc   func(ctx context.Context, ds *omegago.Dataset, cfg omegago.Config) (*omegago.Report, error)
	batchFunc  func(ctx context.Context, batch []*omegago.Dataset, cfg omegago.Config) (*omegago.BatchReport, error)
	streamFunc func(ctx context.Context, src omegago.ChunkSource, cfg omegago.Config) (*omegago.Report, error)
	now        func() time.Time

	mSubmitted   *obs.Counter
	mCacheHits   *obs.Counter
	mCacheMiss   *obs.Counter
	mQueueDepth  *obs.Gauge
	mRunning     *obs.Gauge
	mStoreErrors *obs.Counter
}

// New builds a Service, recovers state from a durable store, and
// starts the worker pool. The error is non-nil only when recovery
// cannot trust the store (a corrupt record, an unreadable directory) —
// refusing to start beats silently dropping history.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	sm := obs.NewStoreMetrics(cfg.Registry)
	st := cfg.Store
	if st == nil {
		st = store.NewMem(store.Options{
			ResultEntries:     cfg.CacheEntries,
			DatasetCacheBytes: cfg.DatasetCacheBytes,
			Metrics:           sm,
		})
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:        cfg,
		reg:        cfg.Registry,
		met:        obs.NewMetrics(cfg.Registry),
		sm:         sm,
		store:      st,
		jobs:       map[string]*job{},
		tenants:    map[string]int{},
		ctx:        ctx,
		cancel:     cancel,
		scanFunc:   omegago.ScanContext,
		batchFunc:  omegago.ScanBatch,
		streamFunc: omegago.ScanStreamContext,
		now:        time.Now,
	}
	if cfg.scanFunc != nil {
		s.scanFunc = cfg.scanFunc
	}
	s.mSubmitted = cfg.Registry.Counter("omegad_jobs_submitted_total", "Jobs accepted for execution (cache hits included).")
	s.mCacheHits = cfg.Registry.Counter("omegago_cache_hits_total", "Scan results served from the content-addressed cache.")
	s.mCacheMiss = cfg.Registry.Counter("omegago_cache_misses_total", "Scan submissions that required a fresh scan.")
	s.mQueueDepth = cfg.Registry.Gauge("omegad_queue_depth", "Jobs admitted and waiting for a worker.")
	s.mRunning = cfg.Registry.Gauge("omegad_jobs_running", "Jobs currently scanning.")
	s.mStoreErrors = cfg.Registry.Counter("omegad_store_errors_total", "Best-effort store writes that failed.")
	requeue, err := s.recover()
	if err != nil {
		cancel()
		return nil, err
	}
	// Queues are buffered past QueueDepth by the recovered backlog so
	// re-enqueueing never blocks; admission control (queued < QueueDepth,
	// under mu) remains the real bound and counts across all three
	// priorities.
	for i := range s.queues {
		s.queues[i] = make(chan *job, cfg.QueueDepth+len(requeue))
	}
	for _, j := range requeue {
		s.queued++
		s.queues[queueIndex(j.status.Priority)] <- j
	}
	s.mQueueDepth.Set(float64(s.queued))
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Registry returns the metrics registry the service reports into (the
// one /metrics serves).
func (s *Service) Registry() *obs.Registry { return s.reg }

// Close stops the service immediately: admission stops, running jobs
// are canceled through their contexts and finish interrupted (persisted
// as such), queued jobs stay queued — a durable store re-enqueues them
// at the next start. Safe to call once.
func (s *Service) Close() {
	s.draining.Store(true)
	s.stopping.Store(true)
	s.cancel()
	s.wg.Wait()
	s.store.Close()
}

// Drain stops admission, then gives queued and running jobs up to
// timeout to reach terminal states before calling Close. With a
// durable store nothing is lost either way — the timeout only decides
// whether the backlog finishes here or after the next start.
func (s *Service) Drain(timeout time.Duration) {
	s.draining.Store(true)
	deadline := s.now().Add(timeout)
	for timeout > 0 && s.now().Before(deadline) {
		if s.activeJobs() == 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	s.Close()
}

// activeJobs counts queued+running jobs (the quota-held population).
func (s *Service) activeJobs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, c := range s.tenants {
		n += c
	}
	return n
}

// worker drains the priority queues: high before normal before low,
// re-checking the higher queues between jobs so a burst of low-priority
// work cannot starve a later high-priority submission.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		var j *job
		select {
		case <-s.ctx.Done():
			return
		case j = <-s.queues[qHigh]:
		default:
			select {
			case <-s.ctx.Done():
				return
			case j = <-s.queues[qHigh]:
			case j = <-s.queues[qNormal]:
			default:
				select {
				case <-s.ctx.Done():
					return
				case j = <-s.queues[qHigh]:
				case j = <-s.queues[qNormal]:
				case j = <-s.queues[qLow]:
				}
			}
		}
		s.mu.Lock()
		s.queued--
		s.mQueueDepth.Set(float64(s.queued))
		s.mu.Unlock()
		s.run(j)
	}
}

// execute runs the job's executor and turns a panic into an error
// naming it, so a faulty job fails alone instead of killing the worker
// and every other in-flight job. The stack goes to the log.
func (s *Service) execute(ctx context.Context, j *job) (res api.JobResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			log.Printf("job %s: %s executor panicked: %v\n%s", j.id, j.kind, p, debug.Stack())
			err = fmt.Errorf("%s executor panicked: %v", j.kind, p)
		}
	}()
	return executors[j.kind](ctx, s, j)
}

// run executes one dequeued job to a terminal state through its kind's
// executor.
func (s *Service) run(j *job) {
	if s.ctx.Err() != nil {
		return // shutting down: leave the job queued for recovery
	}
	if !j.toRunning(s.now()) {
		return // canceled while queued
	}
	s.persist(j)
	s.mRunning.Add(1)
	defer s.mRunning.Add(-1)

	ctx := s.ctx
	deadline := s.cfg.DefaultDeadline
	if j.req.DeadlineSeconds > 0 {
		deadline = time.Duration(j.req.DeadlineSeconds * float64(time.Second))
	}
	var cancel context.CancelFunc
	if deadline > 0 {
		ctx, cancel = context.WithTimeout(ctx, deadline)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	j.setCancel(cancel)
	defer cancel()

	res, err := s.execute(ctx, j)
	now := s.now()
	if err != nil {
		switch {
		case j.canceledExplicitly():
			j.finish(api.StateCanceled, nil, omegago.APIError(err), now)
		case s.ctx.Err() != nil && s.stopping.Load():
			j.finish(api.StateInterrupted, nil, &api.Error{
				Code:    api.CodeUnavailable,
				Message: "server shut down while the job was running; resubmit to run it again",
			}, now)
		default:
			j.finish(api.StateFailed, nil, omegago.APIError(err), now)
		}
		s.persist(j)
		s.release(j)
		return
	}
	if perr := s.store.PutResult(j.cacheKey, res); perr != nil {
		s.mStoreErrors.Inc() // best-effort: the job completes uncached
	}
	j.finish(api.StateDone, &res, nil, now)
	s.persist(j)
	s.release(j)
}

// persist writes the job's current record to the store (best-effort:
// a failed write is counted, not fatal — the in-process state is still
// authoritative for this run). Progress snapshots are stripped; the
// store sees state transitions, not ticks.
func (s *Service) persist(j *job) {
	st := j.snapshot()
	st.Progress = nil
	rec := store.JobRecord{
		Schema:   api.SchemaVersion,
		CacheKey: j.cacheKey,
		Request:  j.req,
		Status:   st,
	}
	if err := s.store.PutJob(rec); err != nil {
		s.mStoreErrors.Inc()
	}
}

// release returns the job's tenant quota slot.
func (s *Service) release(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := s.tenants[j.tenant()]; n > 1 {
		s.tenants[j.tenant()] = n - 1
	} else {
		delete(s.tenants, j.tenant())
	}
}

// submit admits a fully-resolved job: drain gate, quota, result cache,
// queue — in that order, all under one lock so concurrent submissions
// cannot over-admit. Returns the job's initial status, or an api
// error.
func (s *Service) submit(r resolved, tenant string) (api.JobStatus, *api.Error) {
	if s.draining.Load() {
		return api.JobStatus{}, &api.Error{
			Code:    api.CodeUnavailable,
			Message: "server is draining; no new jobs are admitted",
		}
	}
	key := cacheKey(r.hash, omegago.ParamsFromConfig(r.cfg), kindNames.String(r.kind))

	s.mu.Lock()
	defer s.mu.Unlock()

	if s.cfg.TenantJobs > 0 && s.tenants[tenant] >= s.cfg.TenantJobs {
		return api.JobStatus{}, &api.Error{
			Code:    api.CodeCapacity,
			Message: fmt.Sprintf("tenant %q already has %d active jobs (limit %d)", tenant, s.tenants[tenant], s.cfg.TenantJobs),
		}
	}

	now := s.now()
	if res, ok, err := s.store.GetResult(key); err == nil && ok {
		// Cache hit: the job is born terminal, never touches the queue.
		s.mCacheHits.Inc()
		s.mSubmitted.Inc()
		s.tenantCounter(tenant).Inc()
		j := s.newJobLocked(r, key, tenant, now)
		j.status.State = api.StateDone
		j.status.Cached = true
		j.status.FinishedAt = timestamp(now)
		j.result = &res
		close(j.done)
		s.persist(j)
		return j.snapshot(), nil
	} else if err != nil {
		s.mStoreErrors.Inc() // unreadable cache entry: treat as a miss
	}

	if s.queued >= s.cfg.QueueDepth {
		return api.JobStatus{}, &api.Error{
			Code:    api.CodeCapacity,
			Message: fmt.Sprintf("job queue full (%d queued, depth %d)", s.queued, s.cfg.QueueDepth),
		}
	}

	s.mCacheMiss.Inc()
	s.mSubmitted.Inc()
	s.tenantCounter(tenant).Inc()
	s.tenants[tenant]++
	j := s.newJobLocked(r, key, tenant, now)
	s.queued++
	s.mQueueDepth.Set(float64(s.queued))
	// Persist before the channel send: once a worker can see the job,
	// the stored record must already say "queued", or a racing running-
	// state write could be overwritten by a stale one.
	s.persist(j)
	s.queues[queueIndex(j.status.Priority)] <- j
	return j.snapshot(), nil
}

// newJobLocked allocates and registers a job; s.mu must be held. IDs
// continue past recovered history (recover seeds nextID) and skip any
// identifier already taken.
func (s *Service) newJobLocked(r resolved, key, tenant string, now time.Time) *job {
	var id string
	for {
		s.nextID++
		id = fmt.Sprintf("job-%06d", s.nextID)
		if _, taken := s.jobs[id]; !taken {
			break
		}
	}
	priority := r.req.Priority
	if priority == "" {
		priority = api.PriorityNormal
	}
	j := newJob(id, r, tenant, priority, now)
	j.cacheKey = key
	s.jobs[id] = j
	s.order = append(s.order, id)
	return j
}

// lookup returns the job by ID.
func (s *Service) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// tenantCounter returns the per-tenant submission counter, a labeled
// series on the service registry.
func (s *Service) tenantCounter(tenant string) *obs.Counter {
	return s.reg.Counter(
		fmt.Sprintf("omegad_tenant_jobs_total{tenant=%q}", tenant),
		"Jobs submitted per tenant.")
}

// cancelJob cancels a job in any state; terminal jobs are left as-is
// (idempotent). Returns the resulting status.
func (s *Service) cancelJob(j *job) api.JobStatus {
	if j.cancelQueued(s.now()) {
		// Canceled before a worker picked it up: give back the quota
		// slot now; the worker will skip it on dequeue.
		s.persist(j)
		s.release(j)
	}
	return j.snapshot()
}

// timestamp renders the wire timestamp form (RFC 3339, UTC).
func timestamp(t time.Time) string {
	return t.UTC().Format(time.RFC3339Nano)
}
