// Package seqio parses population-genetic input formats into the
// binary SNP alignment consumed by the sweep-detection engine, and
// streams alignments chunk-by-chunk for out-of-core scans.
//
// # Alignment
//
// The central type is Alignment: SNP positions in base pairs plus a
// bit-packed SNP-major matrix (internal/bitvec) where bit s of row i is
// 1 iff sample s carries the derived (or minor) allele at SNP i.
// Missing data is tracked with per-SNP validity masks. The 2-bit
// packed-allele idea follows OmegaPlus (Alachiotis et al.) and the
// paper reproduced by this repository ("Accelerated LD-based selective
// sweep detection using GPUs and FPGAs"); the same layout underlies
// PLINK's .bed format and the bitwise population-count LD evaluation of
// the OmegaPlus family.
//
// # Parsers and writers
//
// Resident (whole-file) parsers cover Hudson's ms (ParseMS,
// ParseMSAlignment), FASTA (ParseFASTA, FASTAToAlignment), a minimal
// VCF subset (ParseVCF), and the native bitmat container (ReadBitmat).
// WriteMS, WriteVCF, WriteFASTA and WriteBitmat convert back out.
// InjectMissing masks genotypes at a seeded rate, the scenario
// engine's missing-data treatment of an otherwise unchanged dataset.
//
// # bitmat: the packed bit-matrix container
//
// WriteBitmat/ReadBitmat implement "bitmat" v1, a versioned,
// little-endian, word-aligned on-disk image of the packed matrix with
// a SHA-256 content hash. Because its row section is exactly the
// in-memory bitvec layout, OpenBitmat can mmap the file and adopt the
// rows zero-copy on little-endian hosts, skipping allele compression
// entirely on re-scans. The normative byte-level specification is
// docs/FORMATS.md.
//
// # Streaming
//
// ChunkSource is the out-of-core contract: Meta exposes the full
// positions table up front (cheap — a scan's grid geometry needs only
// positions), ReadChunk materializes an arbitrary half-open row range
// [lo, hi), and implementations may assume ranges arrive in ascending,
// overlapping order so they can reuse the tail of the previous chunk.
// Four implementations exist: AlignmentSource (resident adapter),
// MSSource (column-major ms sites packed at most once), VCFSource
// (indexed records, plain or gzip), and BitmatSource (zero-copy row
// windows over an mmap). internal/omega.ScanStream drives any of them
// with double-buffered loading; see docs/ARCHITECTURE.md §2.5.
package seqio
