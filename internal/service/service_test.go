package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"omegago"
	"omegago/api"
)

// testDataset simulates a small deterministic replicate.
func testDataset(t *testing.T, seed int64) *omegago.Dataset {
	t.Helper()
	ds, err := omegago.Simulate(omegago.SimConfig{
		SampleSize: 12, Replicates: 1, SegSites: 120, Seed: seed,
	}, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func newTestService(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		s.Close()
	})
	return s, srv
}

func postScan(t *testing.T, srv *httptest.Server, req api.ScanRequest, tenant string) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest("POST", srv.URL+"/v1/scan", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		hr.Header.Set(TenantHeader, tenant)
	}
	resp, err := srv.Client().Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func get(t *testing.T, srv *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// waitDone polls a job to a terminal state.
func waitDone(t *testing.T, srv *httptest.Server, id string) api.JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, body := get(t, srv, "/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll %s: HTTP %d: %s", id, resp.StatusCode, body)
		}
		st, err := api.DecodeJobStatus(body)
		if err != nil {
			t.Fatalf("poll %s: %v", id, err)
		}
		switch st.State {
		case api.StateDone, api.StateFailed, api.StateCanceled:
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return api.JobStatus{}
}

func uploadRequest(t *testing.T, ds *omegago.Dataset) api.ScanRequest {
	t.Helper()
	var buf bytes.Buffer
	if err := omegago.WriteBitmat(&buf, ds); err != nil {
		t.Fatal(err)
	}
	return api.ScanRequest{
		Schema:  api.SchemaVersion,
		Dataset: api.DatasetRef{BitmatBase64: base64.StdEncoding.EncodeToString(buf.Bytes())},
		Params:  api.ScanParams{GridSize: 16, MaxWindow: 50000},
	}
}

// TestEndToEndMatchesLibrary is the core contract: an HTTP-submitted
// job's canonical report is byte-identical to a direct library scan of
// the same input with the same parameters.
func TestEndToEndMatchesLibrary(t *testing.T) {
	ds := testDataset(t, 7)
	_, srv := newTestService(t, Config{Workers: 2})

	req := uploadRequest(t, ds)
	resp, body := postScan(t, srv, req, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, body)
	}
	st, err := api.DecodeJobStatus(body)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateQueued || st.Tenant != "anonymous" || st.Priority != api.PriorityNormal {
		t.Errorf("initial status = %+v", st)
	}
	final := waitDone(t, srv, st.ID)
	if final.State != api.StateDone || final.Cached {
		t.Fatalf("final status = %+v", final)
	}

	resp, body = get(t, srv, "/v1/jobs/"+st.ID+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: HTTP %d: %s", resp.StatusCode, body)
	}
	got, err := api.DecodeScanReport(body)
	if err != nil {
		t.Fatal(err)
	}
	gotCanon, err := got.Canonical()
	if err != nil {
		t.Fatal(err)
	}

	rep, err := omegago.Scan(ds, omegago.Config{GridSize: 16, MaxWindow: 50000})
	if err != nil {
		t.Fatal(err)
	}
	hash, err := omegago.DatasetContentHash(ds)
	if err != nil {
		t.Fatal(err)
	}
	wantCanon, err := rep.APIReport("", hex.EncodeToString(hash[:])).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCanon, wantCanon) {
		t.Errorf("HTTP and library canonical reports differ:\n%s\nvs\n%s", gotCanon, wantCanon)
	}
	if got.DatasetHash != hex.EncodeToString(hash[:]) {
		t.Errorf("report dataset hash %s, want %s", got.DatasetHash, hex.EncodeToString(hash[:]))
	}
}

// TestCacheHitOnResubmission: the same bits + params come back cached,
// visible both on the JobStatus and in the /metrics exposition.
func TestCacheHitOnResubmission(t *testing.T) {
	ds := testDataset(t, 11)
	_, srv := newTestService(t, Config{Workers: 1})

	req := uploadRequest(t, ds)
	req.Label = "first"
	_, body := postScan(t, srv, req, "")
	st, err := api.DecodeJobStatus(body)
	if err != nil {
		t.Fatal(err)
	}
	first := waitDone(t, srv, st.ID)
	if first.Cached {
		t.Fatal("first submission reported cached")
	}
	_, firstResult := get(t, srv, "/v1/jobs/"+st.ID+"/result")

	// Resubmit by content hash with a different label and priority: the
	// result identity ignores both.
	req2 := api.ScanRequest{
		Schema:   api.SchemaVersion,
		Dataset:  api.DatasetRef{ContentHash: first.DatasetHash},
		Params:   req.Params,
		Priority: api.PriorityHigh,
		Label:    "second",
	}
	resp, body := postScan(t, srv, req2, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit: HTTP %d: %s", resp.StatusCode, body)
	}
	st2, err := api.DecodeJobStatus(body)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != api.StateDone || !st2.Cached {
		t.Fatalf("resubmission not served from cache: %+v", st2)
	}

	_, secondResult := get(t, srv, "/v1/jobs/"+st2.ID+"/result")
	r1, err := api.DecodeScanReport(firstResult)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := api.DecodeScanReport(secondResult)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Label != "second" {
		t.Errorf("cached result label %q, want the new request's label", r2.Label)
	}
	// The cached report echoes a different label; neutralize it before
	// comparing the scan content.
	r1.Label, r2.Label = "", ""
	c1, _ := r1.Canonical()
	c2, _ := r2.Canonical()
	if !bytes.Equal(c1, c2) {
		t.Errorf("cached result differs from original:\n%s\nvs\n%s", c1, c2)
	}

	_, metrics := get(t, srv, "/metrics")
	if !strings.Contains(string(metrics), "omegago_cache_hits_total 1") {
		t.Errorf("/metrics missing omegago_cache_hits_total 1:\n%s", metrics)
	}
}

// blockingService installs a scanFunc that parks until released (or
// the context ends), for deterministic queue and cancel tests.
func blockingService(t *testing.T, cfg Config) (*Service, *httptest.Server, chan struct{}) {
	s, srv := newTestService(t, cfg)
	release := make(chan struct{})
	s.scanFunc = func(ctx context.Context, ds *omegago.Dataset, c omegago.Config) (*omegago.Report, error) {
		select {
		case <-release:
			return omegago.ScanContext(ctx, ds, c)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return s, srv, release
}

func TestQueueFullRejectsWith429(t *testing.T) {
	ds := testDataset(t, 13)
	_, srv, release := blockingService(t, Config{Workers: 1, QueueDepth: 1})

	req := uploadRequest(t, ds)
	// First: picked up by the worker (blocks). Give the worker a moment
	// to dequeue so the queue slot frees deterministically.
	_, body := postScan(t, srv, req, "")
	st, err := api.DecodeJobStatus(body)
	if err != nil {
		t.Fatalf("first submit: %v (%s)", err, body)
	}
	waitState(t, srv, st.ID, api.StateRunning)

	// Second: sits in the queue. Vary a param so it is not a cache-key
	// duplicate (misses still, nothing is cached yet).
	req2 := req
	req2.Params.GridSize = 17
	resp, _ := postScan(t, srv, req2, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: HTTP %d", resp.StatusCode)
	}

	// Third: queue full.
	req3 := req
	req3.Params.GridSize = 18
	resp, body = postScan(t, srv, req3, "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit: HTTP %d, want 429 (%s)", resp.StatusCode, body)
	}
	var e api.Error
	if err := json.Unmarshal(body, &e); err != nil || e.Code != api.CodeCapacity {
		t.Errorf("429 envelope = %s", body)
	}
	close(release)
}

// waitState polls until the job reaches the given state.
func waitState(t *testing.T, srv *httptest.Server, id, state string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		_, body := get(t, srv, "/v1/jobs/"+id)
		st, err := api.DecodeJobStatus(body)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == state {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, state)
}

func TestTenantQuota(t *testing.T) {
	ds := testDataset(t, 17)
	_, srv, release := blockingService(t, Config{Workers: 1, QueueDepth: 8, TenantJobs: 1})
	defer close(release)

	req := uploadRequest(t, ds)
	resp, _ := postScan(t, srv, req, "alice")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first: HTTP %d", resp.StatusCode)
	}
	req2 := req
	req2.Params.GridSize = 19
	resp, body := postScan(t, srv, req2, "alice")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("alice's second job: HTTP %d, want 429 (%s)", resp.StatusCode, body)
	}
	// A different tenant is unaffected.
	resp, _ = postScan(t, srv, req2, "bob")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("bob: HTTP %d, want 202", resp.StatusCode)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	ds := testDataset(t, 19)
	_, srv, release := blockingService(t, Config{Workers: 1, QueueDepth: 4})
	defer close(release)

	req := uploadRequest(t, ds)
	_, body := postScan(t, srv, req, "")
	st1, _ := api.DecodeJobStatus(body)
	waitState(t, srv, st1.ID, api.StateRunning)

	req2 := req
	req2.Params.GridSize = 21
	_, body = postScan(t, srv, req2, "")
	st2, _ := api.DecodeJobStatus(body)

	// Cancel the queued job: immediate terminal state.
	hr, _ := http.NewRequest("DELETE", srv.URL+"/v1/jobs/"+st2.ID, nil)
	resp, err := srv.Client().Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	got, err := api.DecodeJobStatus(out)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != api.StateCanceled {
		t.Errorf("queued cancel state = %s", got.State)
	}

	// Cancel the running job: its context is canceled and the worker
	// records the canceled state.
	hr, _ = http.NewRequest("DELETE", srv.URL+"/v1/jobs/"+st1.ID, nil)
	if _, err := srv.Client().Do(hr); err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, srv, st1.ID)
	if final.State != api.StateCanceled {
		t.Errorf("running cancel state = %s (error %+v)", final.State, final.Error)
	}
}

func TestDeadlineFailsWithTimeout(t *testing.T) {
	ds := testDataset(t, 23)
	s, srv := newTestService(t, Config{Workers: 1})
	s.scanFunc = func(ctx context.Context, ds *omegago.Dataset, c omegago.Config) (*omegago.Report, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	req := uploadRequest(t, ds)
	req.DeadlineSeconds = 0.02
	_, body := postScan(t, srv, req, "")
	st, err := api.DecodeJobStatus(body)
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, srv, st.ID)
	if final.State != api.StateFailed || final.Error == nil || final.Error.Code != api.CodeTimeout {
		t.Errorf("deadline job = %+v (error %+v)", final, final.Error)
	}
	// The recorded error surfaces on the result endpoint with the
	// timeout's HTTP status.
	resp, _ := get(t, srv, "/v1/jobs/"+st.ID+"/result")
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("failed job result: HTTP %d, want 504", resp.StatusCode)
	}
}

// TestExecutorPanicFailsJobOnly: a panicking executor ends its own job
// failed with an error naming the panic, logs the stack, and leaves the
// single worker serving — the next job still succeeds.
func TestExecutorPanicFailsJobOnly(t *testing.T) {
	var logBuf bytes.Buffer
	log.SetOutput(&logBuf)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })

	var panicked atomic.Bool
	_, srv := newTestService(t, Config{
		Workers: 1,
		scanFunc: func(ctx context.Context, ds *omegago.Dataset, c omegago.Config) (*omegago.Report, error) {
			if panicked.CompareAndSwap(false, true) {
				panic("kernel exploded")
			}
			return omegago.ScanContext(ctx, ds, c)
		},
	})

	_, body := postScan(t, srv, uploadRequest(t, testDataset(t, 31)), "")
	st, err := api.DecodeJobStatus(body)
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, srv, st.ID)
	if final.State != api.StateFailed || final.Error == nil || final.Error.Code != api.CodeFailure ||
		!strings.Contains(final.Error.Message, "scan executor panicked: kernel exploded") {
		t.Fatalf("panicking job = %+v (error %+v)", final, final.Error)
	}
	if !strings.Contains(logBuf.String(), "kernel exploded") || !strings.Contains(logBuf.String(), "goroutine") {
		t.Errorf("panic not logged with its stack:\n%s", logBuf.String())
	}

	_, body = postScan(t, srv, uploadRequest(t, testDataset(t, 37)), "")
	st, err = api.DecodeJobStatus(body)
	if err != nil {
		t.Fatal(err)
	}
	if final := waitDone(t, srv, st.ID); final.State != api.StateDone {
		t.Fatalf("job after the panic = %+v (error %+v)", final, final.Error)
	}
}

func TestErrorEnvelopes(t *testing.T) {
	ds := testDataset(t, 29)
	_, srv := newTestService(t, Config{Workers: 1}) // AllowPaths off

	check := func(name string, status int, code string, resp *http.Response, body []byte) {
		t.Helper()
		if resp.StatusCode != status {
			t.Errorf("%s: HTTP %d, want %d (%s)", name, resp.StatusCode, status, body)
			return
		}
		var e api.Error
		if err := json.Unmarshal(body, &e); err != nil || e.Code != code {
			t.Errorf("%s: envelope %s, want code %s", name, body, code)
		}
	}

	// Undecodable body → usage.
	hr, _ := http.NewRequest("POST", srv.URL+"/v1/scan", strings.NewReader("not json"))
	resp, err := srv.Client().Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	check("bad json", http.StatusBadRequest, api.CodeUsage, resp, body)

	// Invalid config → config.
	req := uploadRequest(t, ds)
	req.Params.GridSize = -1
	resp, body = postScan(t, srv, req, "")
	check("bad grid", http.StatusBadRequest, api.CodeConfig, resp, body)

	// Unknown backend name → config.
	req = uploadRequest(t, ds)
	req.Params.Backend = "tpu"
	resp, body = postScan(t, srv, req, "")
	check("bad backend", http.StatusBadRequest, api.CodeConfig, resp, body)

	// Path reference with paths disabled → config.
	req = uploadRequest(t, ds)
	req.Dataset = api.DatasetRef{Path: "/etc/hostname", Format: "ms"}
	resp, body = postScan(t, srv, req, "")
	check("paths disabled", http.StatusBadRequest, api.CodeConfig, resp, body)

	// Unknown content hash → not_found.
	req = uploadRequest(t, ds)
	req.Dataset = api.DatasetRef{ContentHash: strings.Repeat("ab", 32)}
	resp, body = postScan(t, srv, req, "")
	check("unknown hash", http.StatusNotFound, api.CodeNotFound, resp, body)

	// Unknown job → not_found.
	resp, body = get(t, srv, "/v1/jobs/job-999999")
	check("unknown job", http.StatusNotFound, api.CodeNotFound, resp, body)
}

func TestPathDatasetAndJobList(t *testing.T) {
	ds := testDataset(t, 31)
	dir := t.TempDir()
	path := filepath.Join(dir, "rep.bitmat")
	if err := omegago.SaveBitmat(path, ds); err != nil {
		t.Fatal(err)
	}
	_, srv := newTestService(t, Config{Workers: 1, AllowPaths: true})

	req := api.ScanRequest{
		Schema:  api.SchemaVersion,
		Dataset: api.DatasetRef{Path: path, Format: "bitmat"},
		Params:  api.ScanParams{GridSize: 8},
	}
	resp, body := postScan(t, srv, req, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("path submit: HTTP %d: %s", resp.StatusCode, body)
	}
	st, _ := api.DecodeJobStatus(body)
	final := waitDone(t, srv, st.ID)
	if final.State != api.StateDone {
		t.Fatalf("path job = %+v", final)
	}

	resp, body = get(t, srv, "/v1/jobs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: HTTP %d", resp.StatusCode)
	}
	var list []api.JobStatus
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != st.ID {
		t.Errorf("job list = %+v", list)
	}
}

func TestSSEEventsStreamToTerminal(t *testing.T) {
	ds := testDataset(t, 37)
	_, srv := newTestService(t, Config{Workers: 1})

	req := uploadRequest(t, ds)
	_, body := postScan(t, srv, req, "")
	st, err := api.DecodeJobStatus(body)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := srv.Client().Get(srv.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}
	var last api.JobStatus
	events := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		events++
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &last); err != nil {
			t.Fatalf("bad SSE data: %v", err)
		}
	}
	if events == 0 {
		t.Fatal("no SSE events received")
	}
	if last.State != api.StateDone {
		t.Errorf("last SSE state = %s, want done (after %d events)", last.State, events)
	}
}

// TestConcurrentSubmissions exercises the admission path under the
// race detector: many goroutines submitting, polling, listing.
func TestConcurrentSubmissions(t *testing.T) {
	ds := testDataset(t, 41)
	_, srv := newTestService(t, Config{Workers: 4, QueueDepth: 64})
	req := uploadRequest(t, ds)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := req
			r.Params.GridSize = 8 + i%3 // mix of cache keys
			resp, body := postScan(t, srv, r, fmt.Sprintf("tenant-%d", i%2))
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("submit %d: HTTP %d: %s", i, resp.StatusCode, body)
				return
			}
			st, err := api.DecodeJobStatus(body)
			if err != nil {
				t.Error(err)
				return
			}
			final := waitDone(t, srv, st.ID)
			if final.State != api.StateDone {
				t.Errorf("job %s = %+v", st.ID, final)
			}
		}(i)
	}
	wg.Wait()
	_, metrics := get(t, srv, "/metrics")
	if !strings.Contains(string(metrics), "omegad_jobs_submitted_total 8") {
		t.Errorf("/metrics missing submissions:\n%s", metrics)
	}
}
