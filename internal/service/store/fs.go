package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"omegago/api"
	"omegago/internal/obs"
	"omegago/internal/seqio"
)

// FSStore is the durable store: a data directory with three
// content-named sections (the normative layout is docs/FORMATS.md §6):
//
//	<dir>/jobs/<job-id>.json     job records, canonical JSON
//	<dir>/results/<cache-key>.json  canonical JobResult bytes
//	<dir>/blobs/<content-hash>.bitmat  dataset blobs, bitmat format
//
// Every write lands via a temp file and an atomic rename, so readers
// (including a recovering restart) never observe torn files. Results
// and blobs are immutable once written — both are content-addressed,
// so a rewrite would produce identical bytes and is skipped. Resident
// datasets are fronted by the shared byte-capped cache; eviction only
// drops the memory copy and GetBlob reloads from disk.
type FSStore struct {
	dir   string
	blobs *blobCache
	met   *obs.StoreMetrics
}

// NewFS opens (creating if needed) a durable store rooted at dir.
func NewFS(dir string, opts Options) (*FSStore, error) {
	met := opts.metrics()
	for _, sub := range []string{"jobs", "results", "blobs"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: creating %s: %w", filepath.Join(dir, sub), err)
		}
	}
	return &FSStore{
		dir:   dir,
		blobs: newBlobCache(opts.DatasetCacheBytes, met),
		met:   met,
	}, nil
}

// Dir returns the store's root directory.
func (s *FSStore) Dir() string { return s.dir }

func (s *FSStore) jobPath(id string) string {
	return filepath.Join(s.dir, "jobs", id+".json")
}

func (s *FSStore) resultPath(key string) string {
	return filepath.Join(s.dir, "results", key+".json")
}

func (s *FSStore) blobPath(hashHex string) string {
	return filepath.Join(s.dir, "blobs", hashHex+".bitmat")
}

// PutJob atomically writes the record under its job ID, replacing any
// previous version.
func (s *FSStore) PutJob(rec JobRecord) error {
	b, err := rec.Encode()
	if err != nil {
		return err
	}
	if err := seqio.WriteFileAtomic(s.jobPath(rec.ID()), writeBytes(b)); err != nil {
		return fmt.Errorf("store: writing job %s: %w", rec.ID(), err)
	}
	s.met.JobWrites.Inc()
	return nil
}

// Jobs reads and strictly decodes every job record, sorted by job ID.
// A corrupt record fails the whole read — recovery must not silently
// drop history.
func (s *FSStore) Jobs() ([]JobRecord, error) {
	entries, err := os.ReadDir(filepath.Join(s.dir, "jobs"))
	if err != nil {
		return nil, fmt.Errorf("store: listing jobs: %w", err)
	}
	var out []JobRecord
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || strings.HasPrefix(name, ".") || !strings.HasSuffix(name, ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.dir, "jobs", name))
		if err != nil {
			return nil, fmt.Errorf("store: reading job record %s: %w", name, err)
		}
		rec, err := DecodeJobRecord(data)
		if err != nil {
			return nil, fmt.Errorf("store: job record %s: %w", name, err)
		}
		if want := rec.ID() + ".json"; name != want {
			return nil, fmt.Errorf("store: job record %s claims id %q", name, rec.ID())
		}
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out, nil
}

// PutResult atomically writes the canonical result bytes under key.
// An existing result file is left untouched: results are
// content-addressed, so the bytes could only be identical.
func (s *FSStore) PutResult(key string, res api.JobResult) error {
	if err := checkHexKey("cache_key", key); err != nil {
		return err
	}
	path := s.resultPath(key)
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	canon, err := res.WithLabel("").Canonical()
	if err != nil {
		return err
	}
	if err := seqio.WriteFileAtomic(path, writeBytes(canon)); err != nil {
		return fmt.Errorf("store: writing result %s: %w", key, err)
	}
	s.met.ResultWrites.Inc()
	return nil
}

// GetResult reads and strictly decodes the stored result for key; the
// decoded value re-encodes byte-identically to the file (canonical
// encoding is deterministic), which is what makes post-restart cache
// hits byte-identical to the original response.
func (s *FSStore) GetResult(key string) (api.JobResult, bool, error) {
	if err := checkHexKey("cache_key", key); err != nil {
		return api.JobResult{}, false, err
	}
	data, err := os.ReadFile(s.resultPath(key))
	if os.IsNotExist(err) {
		return api.JobResult{}, false, nil
	}
	if err != nil {
		return api.JobResult{}, false, fmt.Errorf("store: reading result %s: %w", key, err)
	}
	res, err := api.DecodeJobResult(data)
	if err != nil {
		return api.JobResult{}, false, fmt.Errorf("store: result %s: %w", key, err)
	}
	return res, true, nil
}

// PutBlob writes the dataset as a bitmat blob under its content hash
// (skipped when the blob already exists — content addressing makes the
// bytes identical) and retains it in the resident cache.
func (s *FSStore) PutBlob(a *seqio.Alignment) ([32]byte, error) {
	hash, err := seqio.ContentHash(a)
	if err != nil {
		return hash, err
	}
	size, err := seqio.BitmatSize(a)
	if err != nil {
		return hash, err
	}
	hh := hashHexOf(hash)
	path := s.blobPath(hh)
	if _, err := os.Stat(path); os.IsNotExist(err) {
		err := seqio.WriteFileAtomic(path, func(w io.Writer) error { return seqio.WriteBitmat(w, a) })
		if err != nil {
			return hash, fmt.Errorf("store: writing blob %s: %w", hh, err)
		}
		s.met.BlobWrites.Inc()
	} else if err != nil {
		return hash, fmt.Errorf("store: checking blob %s: %w", hh, err)
	}
	s.blobs.put(hh, a, size)
	return hash, nil
}

// GetBlob returns the dataset for a content hash: from the resident
// cache when hot, else reloaded (and hash-verified) from the blob
// file.
func (s *FSStore) GetBlob(hashHex string) (*seqio.Alignment, bool, error) {
	if err := checkHexKey("content_hash", hashHex); err != nil {
		return nil, false, err
	}
	if a, ok := s.blobs.get(hashHex); ok {
		return a, true, nil
	}
	a, err := seqio.ReadBitmatFile(s.blobPath(hashHex))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("store: reading blob %s: %w", hashHex, err)
	}
	// ReadBitmatFile verified the file's own integrity; also verify the
	// content matches the name, so a renamed file cannot serve the
	// wrong dataset under this hash.
	hash, err := seqio.ContentHash(a)
	if err != nil {
		return nil, false, err
	}
	if hashHexOf(hash) != hashHex {
		return nil, false, fmt.Errorf("store: blob %s holds content %s", hashHex, hashHexOf(hash))
	}
	size, err := seqio.BitmatSize(a)
	if err != nil {
		return nil, false, err
	}
	s.blobs.put(hashHex, a, size)
	return a, true, nil
}

// OpenBlob opens the blob file as a streaming chunk source (memory-
// mapped where the platform allows). The caller owns the source and
// must Close it.
func (s *FSStore) OpenBlob(hashHex string) (seqio.ChunkSource, bool, error) {
	if err := checkHexKey("content_hash", hashHex); err != nil {
		return nil, false, err
	}
	src, err := seqio.OpenBitmat(s.blobPath(hashHex))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("store: opening blob %s: %w", hashHex, err)
	}
	return src, true, nil
}

// Durable reports true: FSStore state survives restarts.
func (s *FSStore) Durable() bool { return true }

// Close releases nothing held by the store itself (blob sources have
// their own lifecycle).
func (s *FSStore) Close() error { return nil }

// writeBytes is the WriteFileAtomic callback that writes data as is.
func writeBytes(data []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}
}
