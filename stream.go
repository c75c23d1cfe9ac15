package omegago

import (
	"context"
	"fmt"
	"io"
	"time"

	"omegago/internal/exec"
	"omegago/internal/seqio"
)

// ChunkSource feeds a ScanStream scan one SNP-row chunk at a time, so a
// whole-chromosome scan never holds more than two chunks resident (the
// one being scanned and the one the loader is parsing ahead). Sources
// must be read strictly forward; see internal/seqio for the contract
// and docs/FORMATS.md for the on-disk bitmat layout.
type ChunkSource = seqio.ChunkSource

// StreamMeta is the whole-input summary a ChunkSource knows up front:
// sample count, SNP count, region length and the full positions table
// (positions are small — 8 bytes per SNP — so they stay resident even
// when genotype rows stream).
type StreamMeta = seqio.StreamMeta

// BitmatSource streams a packed bit-matrix (.bitmat) file, memory-
// mapping it when the platform allows so chunk reads adopt file pages
// zero-copy and skip allele compression entirely. See OpenBitmatSource.
type BitmatSource = seqio.BitmatSource

// VCFSource streams a single-chromosome VCF (plain or gzip) in two
// passes: a metadata pass for positions and validation, then
// chunk-by-chunk genotype packing during the scan. See OpenVCFSource.
type VCFSource = seqio.VCFSource

// NewDatasetSource wraps a resident Dataset as a ChunkSource, sharing
// its rows without copying. It exists so streaming code paths — tests,
// the CLI's -stream flag on small inputs — run against in-memory data;
// for genuinely large inputs use OpenBitmatSource or OpenVCFSource.
func NewDatasetSource(ds *Dataset) (ChunkSource, error) {
	return seqio.NewAlignmentSource(ds)
}

// OpenBitmatSource opens a packed bit-matrix file written by SaveBitmat
// (or cmd/convert -to bitmat) for streaming. On platforms with mmap the
// file is mapped read-only and rows are adopted zero-copy; elsewhere it
// falls back to an aligned whole-file read. The content hash stored in
// the header is verified before any row is served.
func OpenBitmatSource(path string) (*BitmatSource, error) {
	return seqio.OpenBitmat(path)
}

// OpenVCFSource opens a single-chromosome VCF file (gzip-compressed or
// plain) for streaming. The file is read twice: once up front for
// positions and validation, then incrementally as the scan requests
// chunks — genotype rows for at most two chunks are resident at a time.
func OpenVCFSource(path string) (*VCFSource, error) {
	return seqio.OpenVCFSource(path)
}

// SaveBitmat writes ds to path in the versioned packed bit-matrix
// format specified in docs/FORMATS.md. A bitmat file round-trips the
// dataset exactly and is the preferred input for repeated ScanStream
// runs: re-scans memory-map it and skip allele compression.
func SaveBitmat(path string, ds *Dataset) error {
	if ds == nil || ds.NumSNPs() == 0 {
		return fmt.Errorf("%w (empty dataset)", ErrNoSNPs)
	}
	return seqio.WriteBitmatFile(path, ds)
}

// WriteBitmat writes ds to w in the packed bit-matrix format. Prefer
// SaveBitmat when writing to a file.
func WriteBitmat(w io.Writer, ds *Dataset) error {
	if ds == nil || ds.NumSNPs() == 0 {
		return fmt.Errorf("%w (empty dataset)", ErrNoSNPs)
	}
	return seqio.WriteBitmat(w, ds)
}

// LoadBitmat reads a packed bit-matrix stream fully into a resident
// Dataset, verifying the content hash. For out-of-core scanning open
// the file with OpenBitmatSource instead.
func LoadBitmat(r io.Reader) (*Dataset, error) {
	return seqio.ReadBitmat(r)
}

// ScanStream runs LD-based selective sweep detection over a streamed
// input. It is ScanStreamContext with a background context.
func ScanStream(src ChunkSource, cfg Config) (*Report, error) {
	return ScanStreamContext(context.Background(), src, cfg)
}

// ScanStreamContext runs an out-of-core sweep scan: src is read in
// overlapping chunks sized to the widest grid region (override with
// Config.ChunkSNPs), the loader parses the next chunk while the current
// one is scanned, and only the live DP band stays resident. Results are
// bit-identical to ScanContext over the same data — chunking changes
// memory behaviour, not a single reported value.
//
// Only BackendCPU supports streamed input (the simulated accelerators'
// transfer models assume a resident alignment); any other backend
// returns an error matching ErrStreamUnsupported. Config.Threads feeds
// the LD stage's workers — the grid itself is scanned in order, chunk
// by chunk. The caller retains ownership of src and should Close it
// after the scan; ScanStreamContext never reads from src after it
// returns, even on cancellation.
func ScanStreamContext(ctx context.Context, src ChunkSource, cfg Config) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if src == nil {
		return nil, fmt.Errorf("omegago: nil chunk source")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Backend != BackendCPU {
		return nil, fmt.Errorf("%w: backend %v", ErrStreamUnsupported, cfg.Backend)
	}
	p := cfg.params().WithDefaults()
	be, err := exec.Lookup(cfg.Backend.String())
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnknownBackend, cfg.Backend)
	}
	if src.Meta().NumSNPs == 0 {
		return nil, fmt.Errorf("%w (empty stream)", ErrNoSNPs)
	}
	mt := cfg.newMeter(p.GridSize)
	t0 := time.Now()
	opts := cfg.execOptions(mt)
	opts.Stream = src
	out, err := be.Scan(ctx, nil, p, opts)
	mt.Done(err)
	if err != nil {
		return nil, err
	}
	out.Stats.Publish(cfg.Metrics)
	return newReport(out, cfg.Backend, t0), nil
}
