package main

import (
	"sync/atomic"
	"time"

	"omegago"
	"omegago/api"
	"omegago/internal/seqio"
	"omegago/internal/service/store"
)

// opStat counts calls into one operation and the time they took.
type opStat struct {
	calls atomic.Int64
	nanos atomic.Int64
}

func (o *opStat) observe(t0 time.Time) {
	o.calls.Add(1)
	o.nanos.Add(int64(time.Since(t0)))
}

func (o *opStat) seconds() float64 { return time.Duration(o.nanos.Load()).Seconds() }

// countingSource wraps a ChunkSource and times every ReadChunk. It
// passes calls and results through unchanged. ReadChunk runs on the
// scan's loader goroutine, hence the atomics.
type countingSource struct {
	omegago.ChunkSource
	reads  opStat
	bytes  atomic.Int64
	rec    *recorder
	parent int64
}

func (s *countingSource) ReadChunk(lo, hi int) (*omegago.Dataset, seqio.ChunkStats, error) {
	t0 := time.Now()
	a, st, err := s.ChunkSource.ReadChunk(lo, hi)
	s.reads.observe(t0)
	s.bytes.Add(st.Bytes)
	s.rec.add(span{Parent: s.parent, Layer: "seqio", Name: "read_chunk", Start: t0, End: time.Now()})
	return a, st, err
}

// Store operations the benchmark times, in report order.
const (
	opPutJob = iota
	opPutResult
	opGetResult
	opPutBlob
	opGetBlob
	opOpenBlob
	numStoreOps
)

var storeOpNames = [numStoreOps]string{"put_job", "put_result", "get_result", "put_blob", "get_blob", "open_blob"}

// countingStore wraps the service's store.Store (handed in through
// service.Config.Store) and times the six data-path operations. Every
// call and result passes through unchanged.
type countingStore struct {
	store.Store
	ops       [numStoreOps]opStat
	resultHit atomic.Int64
	rec       *recorder
}

func (s *countingStore) done(op int, t0 time.Time) {
	s.ops[op].observe(t0)
	s.rec.add(span{Layer: "store", Name: storeOpNames[op], Start: t0, End: time.Now()})
}

func (s *countingStore) PutJob(rec store.JobRecord) error {
	t0 := time.Now()
	defer s.done(opPutJob, t0)
	return s.Store.PutJob(rec)
}

func (s *countingStore) PutResult(key string, res api.JobResult) error {
	t0 := time.Now()
	defer s.done(opPutResult, t0)
	return s.Store.PutResult(key, res)
}

func (s *countingStore) GetResult(key string) (api.JobResult, bool, error) {
	t0 := time.Now()
	defer s.done(opGetResult, t0)
	res, ok, err := s.Store.GetResult(key)
	if ok {
		s.resultHit.Add(1)
	}
	return res, ok, err
}

func (s *countingStore) PutBlob(a *seqio.Alignment) ([32]byte, error) {
	t0 := time.Now()
	defer s.done(opPutBlob, t0)
	return s.Store.PutBlob(a)
}

func (s *countingStore) GetBlob(hashHex string) (*seqio.Alignment, bool, error) {
	t0 := time.Now()
	defer s.done(opGetBlob, t0)
	return s.Store.GetBlob(hashHex)
}

func (s *countingStore) OpenBlob(hashHex string) (seqio.ChunkSource, bool, error) {
	t0 := time.Now()
	defer s.done(opOpenBlob, t0)
	return s.Store.OpenBlob(hashHex)
}
