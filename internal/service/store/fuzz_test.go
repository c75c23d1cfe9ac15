package store

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecodeJobRecord checks the strict job-record decoder that
// recovery runs on every file under jobs/ (docs/FORMATS.md §6): it
// never panics, a rejected input returns an error and the zero record,
// and an accepted input's canonical encoding decodes and re-encodes to
// the same bytes.
func FuzzDecodeJobRecord(f *testing.F) {
	key := `"abababababababababababababababababababababababababababababababab"`
	hash := `"9f1c9f1c9f1c9f1c9f1c9f1c9f1c9f1c9f1c9f1c9f1c9f1c9f1c9f1c9f1c9f1c"`
	// The request is docs/API.md's ScanRequest normalized as §6
	// describes (one content_hash reference, kind spelled out); the
	// status is the API.md JobStatus example without its progress.
	for _, seed := range []string{
		`{"schema":1,"cache_key":` + key + `,"request":{"schema":1,"kind":"scan","dataset":{"content_hash":` + hash + `},"params":{"grid_size":100,"max_window":20000,"backend":"cpu","scheduler":"auto","omega_kernel":"auto","threads":4},"priority":"normal","deadline_seconds":300,"label":"chr2-sweep-scan"},"status":{"schema":1,"id":"job-000042","kind":"scan","state":"running","priority":"normal","tenant":"anonymous","label":"chr2-sweep-scan","dataset_hash":` + hash + `,"submitted_at":"2026-08-08T12:00:00.000Z","started_at":"2026-08-08T12:00:01.000Z"}}`,
		`{"schema":1,"cache_key":` + key + `,"request":{"schema":1,"kind":"batch","datasets":[{"content_hash":` + hash + `},{"content_hash":"0000000000000000000000000000000000000000000000000000000000000000"}],"params":{}},"status":{"schema":1,"id":"job-000001","kind":"batch","state":"failed","priority":"low","tenant":"t","submitted_at":"2026-08-08T12:00:00Z","finished_at":"2026-08-08T12:00:02Z","error":{"code":"input","message":"bad replicate"}}}`,
		`{"schema":1,"cache_key":` + key + `,"request":{"schema":1,"kind":"stream","dataset":{"content_hash":` + hash + `},"params":{"chunk_snps":256}},"status":{"schema":1,"id":"job-000007","kind":"stream","state":"interrupted","priority":"high","tenant":"anonymous","submitted_at":"2026-08-08T12:00:00Z"}}`,
		`{"schema":1,"cache_key":"short","request":{},"status":{}}`,
		`{"schema":1,"cache_key":` + key + `,"request":{"schema":1,"dataset":{"path":"x"},"params":{}},"status":{"schema":1,"id":"job-1","state":"done","priority":"normal","tenant":"a","submitted_at":"x"}}{}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeJobRecord(data)
		if err != nil {
			if !reflect.DeepEqual(r, JobRecord{}) {
				t.Fatalf("rejected input returned a non-zero record: %+v", r)
			}
			return
		}
		enc, err := r.Encode()
		if err != nil {
			t.Fatalf("accepted record does not encode: %v", err)
		}
		back, err := DecodeJobRecord(enc)
		if err != nil {
			t.Fatalf("canonical bytes rejected: %v\n%s", err, enc)
		}
		again, err := back.Encode()
		if err != nil {
			t.Fatalf("re-decoded record does not encode: %v", err)
		}
		if !bytes.Equal(enc, again) {
			t.Fatalf("Encode∘Decode∘Encode changed the bytes:\n%s\n%s", enc, again)
		}
	})
}
