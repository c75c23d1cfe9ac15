package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"omegago"
	"omegago/api"
	"omegago/internal/obs"
	"omegago/internal/service"
	"omegago/internal/service/store"
)

// svcState is one running omegad: the generated datasets, the service
// over an FSStore in a fresh directory, and its loopback HTTP server.
type svcState struct {
	datasets []*omegago.Dataset
	uploads  []string // standard-base64 bitmat of each dataset
	hashes   []string // lowercase-hex content hash of each dataset
	store    *countingStore
	svc      *service.Service
	srv      *http.Server
	base     string
	served   chan struct{}
}

// startService generates the schedule's datasets and starts omegad the
// way `omegad -data-dir DIR -workers nproc` does, served on loopback.
func startService(rc *runCtx, sc schedule) (*svcState, error) {
	s := &svcState{
		datasets: make([]*omegago.Dataset, sc.NDatasets),
		uploads:  make([]string, sc.NDatasets),
		hashes:   make([]string, sc.NDatasets),
	}
	for d := range s.datasets {
		ds := generate(rc.spec.Shape, rc.seed, uint64(d))
		var buf bytes.Buffer
		if err := omegago.WriteBitmat(&buf, ds); err != nil {
			return nil, err
		}
		h, err := omegago.DatasetContentHash(ds)
		if err != nil {
			return nil, err
		}
		s.datasets[d], s.uploads[d], s.hashes[d] = ds, base64.StdEncoding.EncodeToString(buf.Bytes()), hex.EncodeToString(h[:])
	}
	dir, err := os.MkdirTemp(rc.workDir, "store-")
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	fs, err := store.NewFS(dir, store.Options{DatasetCacheBytes: 256 << 20, Metrics: obs.NewStoreMetrics(reg)})
	if err != nil {
		return nil, err
	}
	s.store = &countingStore{Store: fs, rec: rc.rec}
	s.svc, err = service.New(service.Config{Workers: rc.nproc, Store: s.store, Registry: reg})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.svc.Close()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: s.svc.Handler()}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return s, nil
}

// close stops the HTTP server, waits for it, then closes the service
// (which closes the store).
func (s *svcState) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // on timeout, Close below still stops the jobs
	<-s.served
	s.svc.Close()
}

// reqResult is what the client measured for one request.
type reqResult struct {
	ok, rejected     bool
	err              string
	due, sent, done  time.Time
	submit, fetch    time.Duration
	decode           time.Duration
	polls            int
	reqBytes, rspLen int64
	cached           bool
	queueWait, run   time.Duration
	timed            bool // queueWait and run are known (the job ran)
	body             []byte
	work             jobWork
}

// jobWork is the work a job that actually ran reports in its result.
type jobWork struct {
	ldS, omegaS, wallS                 float64
	r2Computed, r2Reused, r2Duplicated int64
	scores, blocked, scalar            int64
}

// client drives the service over HTTP with at most nproc connections.
type client struct {
	hc    *http.Client
	base  string
	acked []atomic.Bool // dataset d is known to be stored on the server
	state *svcState
	spec  spec
	nproc int
}

// The status-poll interval starts at pollMin and doubles up to pollMax.
// pollMax bounds how late a finished job is seen; a longer cap made the
// latency percentiles jump between poll instants from run to run.
const (
	pollMin = 500 * time.Microsecond
	pollMax = 2 * time.Millisecond
)

func (c *client) roundTrip(ctx context.Context, method, url string, body []byte, r *reqResult) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	r.reqBytes += int64(len(body))
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	r.rspLen += int64(len(b))
	return resp.StatusCode, b, err
}

// body builds the scan request of a triple: datasets the server is
// known to hold go by content hash, the others are uploaded inline.
func (c *client) body(t triple) ([]byte, error) {
	ref := func(d int) api.DatasetRef {
		if c.acked[d].Load() {
			return api.DatasetRef{ContentHash: c.state.hashes[d]}
		}
		return api.DatasetRef{BitmatBase64: c.state.uploads[d]}
	}
	req := api.ScanRequest{Schema: api.SchemaVersion, Kind: t.Kind, Params: c.params(t)}
	if t.Kind == kindBatch {
		for _, d := range t.Datasets {
			req.Datasets = append(req.Datasets, ref(d))
		}
	} else {
		req.Dataset = ref(t.Datasets[0])
	}
	return req.Encode()
}

func (c *client) params(t triple) api.ScanParams {
	return api.ScanParams{GridSize: c.spec.Grid, MaxWindow: c.spec.MaxWindows[t.Variant], Threads: c.nproc}
}

// do sends one request and follows it to its result body. Every
// measurement lands in r; spans go to rec when the request is traced.
func (c *client) do(ctx context.Context, t triple, reqID string, rec *recorder, r *reqResult) error {
	root := rec.reserve()
	defer func() {
		r.done = time.Now()
		rec.finish(span{ID: root, Req: reqID, Layer: "bench", Name: "request", Start: r.due, End: r.done})
	}()
	rec.add(span{Parent: root, Req: reqID, Layer: "loadgen", Name: "lag", Start: r.due, End: r.sent, Wait: true})

	body, err := c.body(t)
	if err != nil {
		return err
	}
	t0 := time.Now()
	code, rsp, err := c.roundTrip(ctx, http.MethodPost, c.base+"/v1/scan", body, r)
	r.submit = time.Since(t0)
	rec.add(span{Parent: root, Req: reqID, Layer: "api", Name: "submit", Start: t0, End: t0.Add(r.submit)})
	if err != nil {
		return err
	}
	if code == http.StatusTooManyRequests {
		r.rejected = true
		return fmt.Errorf("rejected: %s", rsp)
	}
	if code != http.StatusAccepted {
		return fmt.Errorf("submit: HTTP %d: %s", code, rsp)
	}
	st, err := c.decodeStatus(rsp, r)
	if err != nil {
		return err
	}
	for _, d := range t.Datasets {
		c.acked[d].Store(true)
	}

	w0 := time.Now()
	for wait := pollMin; st.State == api.StateQueued || st.State == api.StateRunning; wait = min(2*wait, pollMax) {
		time.Sleep(wait)
		code, rsp, err = c.roundTrip(ctx, http.MethodGet, c.base+"/v1/jobs/"+st.ID, nil, r)
		r.polls++
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("poll: HTTP %d: %s", code, rsp)
		}
		if st, err = c.decodeStatus(rsp, r); err != nil {
			return err
		}
	}
	if r.polls > 0 {
		rec.add(span{Parent: root, Req: reqID, Layer: "service", Name: "await", Start: w0, End: time.Now(), Wait: true})
	}
	if st.State != api.StateDone {
		return fmt.Errorf("job %s ended %s: %v", st.ID, st.State, st.Error)
	}
	r.cached = st.Cached
	if sub, e1 := time.Parse(time.RFC3339Nano, st.SubmittedAt); e1 == nil && !st.Cached {
		started, e2 := time.Parse(time.RFC3339Nano, st.StartedAt)
		finished, e3 := time.Parse(time.RFC3339Nano, st.FinishedAt)
		if e2 == nil && e3 == nil {
			r.queueWait, r.run, r.timed = started.Sub(sub), finished.Sub(started), true
		}
	}

	t1 := time.Now()
	code, rsp, err = c.roundTrip(ctx, http.MethodGet, c.base+"/v1/jobs/"+st.ID+"/result", nil, r)
	r.fetch = time.Since(t1)
	rec.add(span{Parent: root, Req: reqID, Layer: "api", Name: "fetch", Start: t1, End: t1.Add(r.fetch)})
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("result: HTTP %d: %s", code, rsp)
	}
	d0 := time.Now()
	err = c.decodeResult(t.Kind, rsp, r)
	r.decode += time.Since(d0)
	rec.add(span{Parent: root, Req: reqID, Layer: "api", Name: "decode", Start: d0, End: time.Now()})
	return err
}

func (c *client) decodeStatus(b []byte, r *reqResult) (api.JobStatus, error) {
	t0 := time.Now()
	st, err := api.DecodeJobStatus(b)
	r.decode += time.Since(t0)
	return st, err
}

// decodeResult strictly decodes a result body, keeps its canonical
// (timing-stripped) bytes for the correctness check, and records the
// work a fresh run reports.
func (c *client) decodeResult(kind string, b []byte, r *reqResult) error {
	var timing *api.Timing
	if kind == kindBatch {
		rep, err := api.DecodeBatchReport(b)
		if err != nil {
			return err
		}
		if r.body, err = rep.Canonical(); err != nil {
			return err
		}
		timing = rep.Timing
		r.work = jobWork{r2Computed: rep.R2Computed, r2Reused: rep.R2Reused, r2Duplicated: rep.R2Duplicated, scores: rep.OmegaScores}
		for _, item := range rep.Replicates {
			if item.Report != nil {
				r.work.blocked += item.Report.KernelBlockedRegions
				r.work.scalar += item.Report.KernelScalarRegions
			}
		}
	} else {
		rep, err := api.DecodeScanReport(b)
		if err != nil {
			return err
		}
		if r.body, err = rep.Canonical(); err != nil {
			return err
		}
		timing = rep.Timing
		r.work = jobWork{
			r2Computed: rep.R2Computed, r2Reused: rep.R2Reused, r2Duplicated: rep.R2Duplicated,
			scores: rep.OmegaScores, blocked: rep.KernelBlockedRegions, scalar: rep.KernelScalarRegions,
		}
	}
	if timing != nil {
		r.work.ldS, r.work.omegaS, r.work.wallS = timing.LDSeconds, timing.OmegaSeconds, timing.WallSeconds
	}
	return nil
}

// expected computes, with the library alone, the canonical result the
// service must return for a triple.
func expected(ctx context.Context, st *svcState, c *client, t triple, dir string) ([]byte, error) {
	cfg, err := omegago.ConfigFromParams(c.params(t))
	if err != nil {
		return nil, err
	}
	switch t.Kind {
	case kindBatch:
		batch := make([]*omegago.Dataset, len(t.Datasets))
		hashes := make([]string, len(t.Datasets))
		for i, d := range t.Datasets {
			batch[i], hashes[i] = st.datasets[d], st.hashes[d]
		}
		br, err := omegago.ScanBatch(ctx, batch, cfg)
		if err != nil {
			return nil, err
		}
		h, err := omegago.BatchContentHash(batch)
		if err != nil {
			return nil, err
		}
		return br.APIBatchReport("", cfg.Backend.String(), hex.EncodeToString(h[:]), hashes).Canonical()
	case kindStream:
		d := t.Datasets[0]
		path := filepath.Join(dir, st.hashes[d]+".bitmat")
		if err := omegago.SaveBitmat(path, st.datasets[d]); err != nil {
			return nil, err
		}
		src, err := omegago.OpenBitmatSource(path)
		if err != nil {
			return nil, err
		}
		defer src.Close()
		rep, err := omegago.ScanStreamContext(ctx, src, cfg)
		if err != nil {
			return nil, err
		}
		return rep.APIReport("", st.hashes[d]).Canonical()
	default:
		d := t.Datasets[0]
		rep, err := omegago.ScanContext(ctx, st.datasets[d], cfg)
		if err != nil {
			return nil, err
		}
		return rep.APIReport("", st.hashes[d]).Canonical()
	}
}

// runService is the service-mix workload: an in-process omegad driven
// open loop at a fixed rate with a Zipf-popular mix of scan, stream
// and batch jobs over uploaded and hash-referenced datasets.
func runService(rc *runCtx) (*outcome, error) {
	sp := rc.spec
	n := int(sp.RatePerS * rc.seconds.Seconds())
	if n < 1 {
		n = 1
	}
	sc := buildSchedule(sp, sp.ScheduleSeed, n)
	var st *svcState
	setup, err := measureSetup(func() error {
		if st != nil {
			st.close()
		}
		var err error
		st, err = startService(rc, sc)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("service-mix set-up: %w", err)
	}
	defer st.close()
	o := &outcome{metrics: map[string]float64{"setup_s": setup}}

	tr := &http.Transport{MaxConnsPerHost: rc.nproc, MaxIdleConnsPerHost: rc.nproc, DisableCompression: true}
	defer tr.CloseIdleConnections()
	c := &client{
		hc: &http.Client{Transport: tr}, base: st.base, acked: make([]atomic.Bool, sc.NDatasets),
		state: st, spec: sp, nproc: rc.nproc,
	}
	ctx, cancel := context.WithTimeout(context.Background(), rc.seconds+60*time.Second)
	defer cancel()

	results := make([]reqResult, len(sc.Requests))
	var (
		wg          sync.WaitGroup
		outstanding atomic.Int64
		maxOut      int64
		rssReset    = resetPeakRSS()
		start       = time.Now()
	)
	for i, req := range sc.Requests {
		due := start.Add(req.Due)
		time.Sleep(time.Until(due))
		r := &results[i]
		r.due, r.sent = due, time.Now()
		if cur := outstanding.Add(1); cur > maxOut {
			maxOut = cur
		}
		wg.Add(1)
		go func(i int, t triple) {
			defer wg.Done()
			defer outstanding.Add(-1)
			if err := c.do(ctx, t, fmt.Sprintf("r%d", i), rc.recFor(i), &results[i]); err != nil {
				results[i].err = err.Error()
				return
			}
			results[i].ok = true
		}(i, sc.Triples[req.Triple])
	}
	wg.Wait()
	end := time.Now()
	o.metrics["peak_rss_mib"] = peakRSSMiB()
	if !rssReset {
		o.notef("peak RSS could not be reset: peak_rss_mib is the process lifetime peak")
	}

	// Correctness: each delivered body must equal, byte for byte in
	// canonical form, a library scan of the same input and parameters.
	want := map[int][]byte{}
	verifyDir, err := os.MkdirTemp(rc.workDir, "verify-")
	if err != nil {
		return nil, err
	}
	var (
		latency, runs, scans, queue []float64
		submit, fetch               []float64
		lags                        []float64
		tracedLat, untracedLat      []float64
		windows                     []interval
		polls, cached, delivered    int
		reqBytes, rspBytes          int64
		decode                      time.Duration
		work                        jobWork
		byKind                      = map[string][2]float64{} // calls, busy seconds
		tot                         kernelTotals
		ranRef                      float64 // pinned reference ω of the jobs that ran
	)
	for i, req := range sc.Requests {
		r := &results[i]
		t := sc.Triples[req.Triple]
		o.attempted++
		lags = append(lags, r.sent.Sub(r.due).Seconds())
		reqBytes += r.reqBytes
		rspBytes += r.rspLen
		decode += r.decode
		if r.rejected {
			o.metrics["service.rejected"]++
		}
		submit = append(submit, r.submit.Seconds())
		if !r.ok {
			o.failed++
			o.notef("request %d (%s): %s", i, t.Kind, r.err)
			continue
		}
		w, ok := want[req.Triple]
		if !ok {
			if w, err = expected(ctx, st, c, t, verifyDir); err != nil {
				return nil, fmt.Errorf("library reference for request %d: %w", i, err)
			}
			want[req.Triple] = w
		}
		if !bytes.Equal(w, r.body) {
			o.failed++
			o.notef("request %d (%s): result differs from the library scan", i, t.Kind)
			continue
		}
		delivered++
		lat := r.done.Sub(r.due).Seconds()
		latency = append(latency, lat)
		if i%2 == 1 {
			tracedLat = append(tracedLat, lat)
			windows = append(windows, interval{r.due, r.done})
		} else {
			untracedLat = append(untracedLat, lat)
		}
		fetch = append(fetch, r.fetch.Seconds())
		polls += r.polls
		if r.cached {
			cached++
			continue
		}
		if r.timed {
			// One scan is one dataset a job scanned: a batch job's run
			// time is split over its replicates, so scan percentiles do
			// not jump with the share of batch jobs among the misses.
			queue = append(queue, r.queueWait.Seconds())
			runs = append(runs, r.run.Seconds())
			for range t.Datasets {
				scans = append(scans, r.run.Seconds()/float64(len(t.Datasets)))
			}
			ranRef += float64(sp.ReferenceOmega[t.Variant] * int64(len(t.Datasets)))
		}
		k := byKind[t.Kind]
		byKind[t.Kind] = [2]float64{k[0] + 1, k[1] + r.work.wallS}
		work.ldS += r.work.ldS
		work.omegaS += r.work.omegaS
		tot.r2Computed += r.work.r2Computed
		tot.r2Reused += r.work.r2Reused
		tot.r2Duplicated += r.work.r2Duplicated
		tot.scores += r.work.scores
		tot.blocked += r.work.blocked
		tot.scalar += r.work.scalar
		tot.reference += sp.ReferenceOmega[t.Variant] * int64(len(t.Datasets))
	}
	// The library the results are compared with is itself checked
	// against the brute-force oracle on the first dataset.
	for v, mw := range sp.MaxWindows {
		rep, err := omegago.Scan(st.datasets[0], omegago.Config{GridSize: sp.Grid, MaxWindow: mw})
		if err == nil {
			err = oracleCheck(st.datasets[0], sp.Grid, mw, rep.Results, oracleRows)
		}
		if err != nil {
			o.notef("library scan of dataset 0, variant %d: %v", v, err)
			o.failed = o.attempted
		}
	}
	if sp.GoldenSeed == rc.seed {
		// The library reference itself is pinned: the first dataset's
		// resident scan under the first parameter variant.
		g, err := expected(ctx, st, c, triple{Kind: kindScan, Datasets: []int{0}}, verifyDir)
		if err != nil {
			return nil, err
		}
		rep, err := api.DecodeScanReport(g)
		if err != nil {
			return nil, err
		}
		if d := rowsDigest(rep.Results); d != sp.GoldenDigest {
			o.notef("reference digest %s differs from the golden %s at seed %d", d, sp.GoldenDigest, rc.seed)
			o.failed = o.attempted
		}
	}
	if len(latency) == 0 {
		return nil, errors.New("service-mix delivered no verified result")
	}

	wall := end.Sub(start).Seconds()
	p90, pLat := tail(latency, 90)
	s90, pScan := tail(scans, 90)
	// Cache hits compute nothing, so ω throughput is the reference ω of
	// the jobs that ran over their summed run time.
	o.metrics["momega_per_s"] = ratio(ranRef, sum(runs)) / 1e6
	o.metrics["jobs_per_s"] = float64(delivered) / wall
	o.metrics["job_p50_ms"] = quantile(latency, 0.5) * 1e3
	o.metrics["job_p90_ms"] = p90 * 1e3
	o.metrics["scan_p50_s"] = quantile(scans, 0.5)
	o.metrics["scan_p90_s"] = s90
	o.notef("%d requests at %.1f/s open loop over %d triples and %d datasets; %d verified, %d cache hits",
		len(sc.Requests), sp.RatePerS, len(sc.Triples), sc.NDatasets, delivered, cached)
	o.notef("job_p90_ms is the p%.0f of %d latencies; scan_p90_s is the p%.0f of %d per-dataset server run times",
		pLat, len(latency), pScan, len(scans))

	if rc.rec != nil {
		spans := rc.rec.all()
		kernelLayers(o.metrics, work.ldS, work.omegaS, tot, sp.Shape.Samples, measurePeaks(rc.nproc, 200*time.Millisecond))
		for kind, name := range map[string]string{kindScan: "scan", kindStream: "scan_stream", kindBatch: "scan_batch"} {
			o.metrics["omegago."+name+".calls"] = byKind[kind][0]
			o.metrics["omegago."+name+".busy_s"] = byKind[kind][1]
		}
		q90, _ := tail(queue, 90)
		r90, _ := tail(runs, 90)
		o.metrics["service.submit_ms_p50"] = quantile(submit, 0.5) * 1e3
		o.metrics["service.queue_wait_ms_p50"] = quantile(queue, 0.5) * 1e3
		o.metrics["service.queue_wait_ms_p90"] = q90 * 1e3
		o.metrics["service.run_ms_p50"] = quantile(runs, 0.5) * 1e3
		o.metrics["service.run_ms_p90"] = r90 * 1e3
		o.metrics["service.fetch_ms_p50"] = quantile(fetch, 0.5) * 1e3
		o.metrics["service.cache_hit_ratio"] = ratio(float64(cached), float64(delivered))
		o.metrics["service.polls_per_job"] = ratio(float64(polls), float64(delivered))
		for op, name := range storeOpNames {
			o.metrics["store."+name+".calls"] = float64(st.store.ops[op].calls.Load())
			o.metrics["store."+name+".busy_s"] = st.store.ops[op].seconds()
		}
		o.metrics["store.get_result.hit_ratio"] = ratio(float64(st.store.resultHit.Load()), float64(st.store.ops[opGetResult].calls.Load()))
		o.metrics["api.request_bytes"] = float64(reqBytes)
		o.metrics["api.response_bytes"] = float64(rspBytes)
		o.metrics["api.decode_s"] = decode.Seconds()
		lag90, _ := tail(lags, 90)
		o.metrics["loadgen.lag_p90_ms"] = lag90 * 1e3
		o.metrics["loadgen.max_outstanding"] = float64(maxOut)
		o.metrics["trace.coverage"] = coverage(spans, windows)
		o.metrics["trace.overhead_ratio"] = ratio(quantile(tracedLat, 0.5), quantile(untracedLat, 0.5)) - 1
	}
	return o, nil
}
