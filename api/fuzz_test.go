package api

import (
	"bytes"
	"reflect"
	"testing"
)

// docScanRequest is the ScanRequest example of docs/API.md verbatim. It
// sets all three dataset references, so the decoder must reject it;
// the seeds below keep one reference each.
const docScanRequest = `{
  "schema": 1,
  "kind": "scan",
  "datasets": null,
  "dataset": {
    "bitmat_base64": "<standard base64 of a bitmat container>",
    "content_hash": "<64 lowercase hex digits>",
    "path": "/data/chr2.vcf.gz",
    "format": "vcf",
    "region_length": 1000000
  },
  "params": {
    "grid_size": 100,
    "min_window": 0,
    "max_window": 20000,
    "max_snps_per_side": 0,
    "backend": "cpu",
    "scheduler": "auto",
    "omega_kernel": "auto",
    "kernel_nthr": 0,
    "threads": 4,
    "gemm_ld": false,
    "chunk_snps": 0
  },
  "priority": "normal",
  "deadline_seconds": 300,
  "label": "chr2-sweep-scan"
}`

// FuzzDecodeScanRequest checks the strict request decoder, the entry
// point of every POST /v1/scan body: it never panics, a rejected input
// returns an error and the zero request, and an accepted input's
// canonical encoding decodes and re-encodes to the same bytes.
func FuzzDecodeScanRequest(f *testing.F) {
	hash := `"9f1c9f1c9f1c9f1c9f1c9f1c9f1c9f1c9f1c9f1c9f1c9f1c9f1c9f1c9f1c9f1c"`
	for _, seed := range []string{
		docScanRequest,
		`{"schema":1,"kind":"scan","dataset":{"path":"/data/chr2.vcf.gz","format":"vcf"},"params":{"grid_size":100,"max_window":20000,"threads":4},"priority":"normal","deadline_seconds":300,"label":"chr2-sweep-scan"}`,
		`{"schema":1,"dataset":{"content_hash":` + hash + `},"params":{"backend":"gpu","gemm_ld":true}}`,
		`{"schema":1,"dataset":{"bitmat_base64":"b21lZ2FiaXQ="},"params":{},"priority":"high"}`,
		`{"schema":1,"dataset":{"path":"sweep.ms","format":"ms"},"params":{"grid_size":100,"max_window":40000,"threads":4},"label":"tutorial"}`,
		`{"schema":1,"kind":"batch","datasets":[{"content_hash":` + hash + `},{"path":"rep.ms","format":"ms","region_length":1e6}],"params":{"threads":2}}`,
		`{"schema":1,"kind":"stream","dataset":{"content_hash":` + hash + `},"params":{"chunk_snps":512},"priority":"low"}`,
		`{"schema":2,"dataset":{"path":"x"},"params":{}}`,
		`{"schema":1,"dataset":{"path":"x"},"params":{}} {}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeScanRequest(data)
		if err != nil {
			if !reflect.DeepEqual(r, ScanRequest{}) {
				t.Fatalf("rejected input returned a non-zero request: %+v", r)
			}
			return
		}
		enc, err := r.Encode()
		if err != nil {
			t.Fatalf("accepted request does not encode: %v", err)
		}
		back, err := DecodeScanRequest(enc)
		if err != nil {
			t.Fatalf("canonical bytes rejected: %v\n%s", err, enc)
		}
		again, err := back.Encode()
		if err != nil {
			t.Fatalf("re-decoded request does not encode: %v", err)
		}
		if !bytes.Equal(enc, again) {
			t.Fatalf("Encode∘Decode∘Encode changed the bytes:\n%s\n%s", enc, again)
		}
	})
}
