// Package compress implements the two compression methods of the active
// visualization application from scratch: method A, an LZW coder (fast,
// moderate ratio), and method B, a Bzip2-style chain of run-length coding,
// Burrows–Wheeler transform, move-to-front, zero-run coding, and Huffman
// coding (slow, better ratio). The CPU-cost/ratio contrast between the two
// is what produces the crossover of Figure 6(a).
//
// Codecs also carry a CostFactor: the relative processor work per input
// byte charged to the sandbox when the virtual-time experiments compress
// or decompress data. The factors are calibrated in package avis.
//
// # Kernel design
//
// The hot paths are written for throughput and zero steady-state
// allocation; the wire formats are pinned bit-for-bit by the golden tests
// in golden_test.go, so every rewrite below is observable only as speed.
//
// Suffix sorting (bwt.go, sais.go): the Burrows–Wheeler transform sorts
// the rotations of each 64 KiB block via a suffix array built by induced
// sorting (SA-IS), which is linear in the block length. The top level
// runs on the block's bytes and recurses, on a string of int32 names at
// most half as long, only when LMS-substrings repeat; one generic
// implementation serves both. The suffix array and the per-level bucket
// arrays live in a pooled saScratch, so a sort allocates nothing.
//
// LZW dictionary (lzw.go): the encoder dictionary is a flat array of
// lzwMaxCodes×256 slots indexed by (prefix code << 8 | next byte), each
// slot packing a 16-bit generation tag with the assigned code. Dictionary
// resets — every 1 KiB block and at each 12-bit width ceiling — bump the
// generation instead of clearing 4 MiB; the array is wiped only when the
// tag wraps. The decoder keeps parent/suffix/length arrays and
// materializes each code's string back-to-front directly into the output
// buffer, so neither direction allocates per code.
//
// Huffman coding (huffman.go): code lengths come from a pooled builder
// whose node arena and index min-heap are plain slices (the heap is
// hand-rolled so no element is boxed through an interface). Codes are
// canonical, assigned by a counting pass per length. The decoder refills
// a 64-bit bit accumulator several bytes at a time and resolves each
// symbol with one probe of a stack-resident table indexed by the next
// 11 stream bits (the bit-reversed canonical codes, since the stream is
// LSB-first); longer codes, and codes the remaining bits cannot
// complete, take the canonical walk — per length the first code, symbol count and an offset
// into a (length, symbol)-sorted symbol array — one bit at a time.
//
// Buffer discipline: every stage has an append-style variant
// (xxxAppendEncode/Decode) writing into caller-supplied buffers; the BZW
// chain rotates three pooled scratch buffers through its five stages, and
// codec entry points draw their output from the size-classed
// internal/bufpool, which callers may return with bufpool.Put when the
// result has been consumed. Decoder preallocations from
// attacker-controlled length headers are capped by the maximum expansion
// a genuine stream can achieve, so malformed input fails cleanly instead
// of allocating gigabytes.
package compress
