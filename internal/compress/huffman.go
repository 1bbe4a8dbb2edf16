package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"
)

// Canonical Huffman coding over the byte alphabet. The encoded form is:
// 256 code lengths (one byte each), a 4-byte little-endian symbol count,
// then the LSB-first bitstream.

// huffNode lives in a flat arena (at most 2·256−1 nodes); left/right are
// arena indices, -1 for leaves' children.
type huffNode struct {
	freq        int
	sym         int // -1 for internal nodes
	left, right int32
	order       int // tie-break for determinism
}

// huffBuilder is the tree-construction state: a node arena plus an index
// min-heap over it. The heap is hand-rolled (sift up/down on an []int32)
// rather than container/heap so no index is ever boxed into an interface;
// the whole builder is pooled, making per-block Huffman coding
// allocation-free.
type huffBuilder struct {
	nodes []huffNode
	idx   []int32
}

func (b *huffBuilder) less(x, y int32) bool {
	a, c := &b.nodes[x], &b.nodes[y]
	if a.freq != c.freq {
		return a.freq < c.freq
	}
	return a.order < c.order
}

func (b *huffBuilder) push(n int32) {
	b.idx = append(b.idx, n)
	i := len(b.idx) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !b.less(b.idx[i], b.idx[parent]) {
			break
		}
		b.idx[i], b.idx[parent] = b.idx[parent], b.idx[i]
		i = parent
	}
}

func (b *huffBuilder) pop() int32 {
	top := b.idx[0]
	n := len(b.idx) - 1
	b.idx[0] = b.idx[n]
	b.idx = b.idx[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			break
		}
		m := l
		if r < n && b.less(b.idx[r], b.idx[l]) {
			m = r
		}
		if !b.less(b.idx[m], b.idx[i]) {
			break
		}
		b.idx[i], b.idx[m] = b.idx[m], b.idx[i]
		i = m
	}
	return top
}

var huffPool = sync.Pool{New: func() any {
	return &huffBuilder{nodes: make([]huffNode, 0, 511), idx: make([]int32, 0, 256)}
}}

// huffLengths computes code lengths from symbol frequencies. The
// construction is the classic binary heap merge with deterministic
// (frequency, creation order) tie-breaking; only the node storage differs
// from a pointer-based tree.
func huffLengths(freq [256]int) [256]byte {
	var lengths [256]byte
	b := huffPool.Get().(*huffBuilder)
	defer huffPool.Put(b)
	b.nodes = b.nodes[:0]
	b.idx = b.idx[:0]
	order := 0
	for s, f := range freq {
		if f > 0 {
			b.nodes = append(b.nodes, huffNode{freq: f, sym: s, left: -1, right: -1, order: order})
			b.push(int32(len(b.nodes) - 1))
			order++
		}
	}
	switch len(b.idx) {
	case 0:
		return lengths
	case 1:
		lengths[b.nodes[b.idx[0]].sym] = 1
		return lengths
	}
	for len(b.idx) > 1 {
		l := b.pop()
		r := b.pop()
		b.nodes = append(b.nodes, huffNode{
			freq: b.nodes[l].freq + b.nodes[r].freq,
			sym:  -1, left: l, right: r, order: order,
		})
		order++
		b.push(int32(len(b.nodes) - 1))
	}
	// Depth-first walk with an explicit stack (node index, depth).
	type frame struct {
		n     int32
		depth byte
	}
	var stack [256]frame
	sp := 0
	stack[0] = frame{n: b.idx[0]}
	sp = 1
	for sp > 0 {
		sp--
		f := stack[sp]
		nd := &b.nodes[f.n]
		if nd.sym >= 0 {
			lengths[nd.sym] = f.depth
			continue
		}
		stack[sp] = frame{n: nd.right, depth: f.depth + 1}
		sp++
		stack[sp] = frame{n: nd.left, depth: f.depth + 1}
		sp++
	}
	return lengths
}

// canonicalCodes assigns canonical codes from lengths (shorter codes
// first, ties by symbol value). Symbols of equal length are visited in
// ascending symbol order, so a counting pass per length replaces the
// old sort.
func canonicalCodes(lengths [256]byte) [256]uint32 {
	var count [huffMaxLen + 1]int
	maxLen := 0
	for _, l := range lengths {
		if l > 0 {
			count[l]++
			if int(l) > maxLen {
				maxLen = int(l)
			}
		}
	}
	var codes [256]uint32
	// next[l] is the first canonical code of length l.
	var next [huffMaxLen + 2]uint32
	code := uint32(0)
	for l := 1; l <= maxLen; l++ {
		next[l] = code
		code = (code + uint32(count[l])) << 1
	}
	for s := 0; s < 256; s++ {
		if l := lengths[s]; l > 0 {
			codes[s] = next[l]
			next[l]++
		}
	}
	return codes
}

// huffMaxLen bounds the code length: lengths are produced by a Huffman
// tree over ≤256 symbols whose total frequency is a block of ≤64 KiB plus
// headroom, which caps depth well below 64; the wire format stores a byte.
const huffMaxLen = 255

// huffEncode compresses src.
func huffEncode(src []byte) []byte {
	return huffAppendEncode(nil, src)
}

// huffAppendEncode appends the encoded form of src to dst.
func huffAppendEncode(dst, src []byte) []byte {
	var freq [256]int
	for _, b := range src {
		freq[b]++
	}
	lengths := huffLengths(freq)
	codes := canonicalCodes(lengths)
	if cap(dst)-len(dst) < 260 {
		dst = append(dst, make([]byte, 0, 260+len(src)/2)...)
	}
	dst = append(dst, lengths[:]...)
	dst = append(dst,
		byte(len(src)), byte(len(src)>>8), byte(len(src)>>16), byte(len(src)>>24))
	// Canonical codes are MSB-first by construction, while the bit writer
	// packs LSB-first; emitting the bit-reversed code in one call produces
	// the same bit sequence as the old per-bit loop.
	var rev [256]uint32
	for s := 0; s < 256; s++ {
		if l := lengths[s]; l > 0 {
			c := codes[s]
			var r uint32
			for i := byte(0); i < l; i++ {
				r = r<<1 | c&1
				c >>= 1
			}
			rev[s] = r
		}
	}
	w := bitWriter{buf: dst}
	for _, b := range src {
		w.write(rev[b], uint(lengths[b]))
	}
	w.flush()
	return w.buf
}

// huffDecode decompresses data produced by huffEncode.
func huffDecode(src []byte) ([]byte, error) {
	return huffAppendDecode(nil, src)
}

// huffTableBits is the width of the decoder's lookup window: codes up to
// this long decode in one table probe, longer ones take the canonical
// walk. 2^11 two-byte entries fill in well under the cost of a 64 KiB
// block, and on wavelet chunks only 1–2% of BZW's Huffman symbols have
// longer codes (the longest are 15–16 bits).
const huffTableBits = 11

// huffAppendDecode appends the decoded payload to dst.
//
// The decoder keeps, per code length, the first canonical code, the
// symbol count and an offset into a (length, symbol)-sorted symbol array.
// From these it fills a lookup table indexed by the next tb stream bits:
// the stream is LSB-first while canonical codes are MSB-first, so a code
// of length l owns every index whose low l bits are its bit-reversal.
// Each entry packs symbol | length<<8 (0: no code of length ≤ tb is a
// prefix of the window). A 64-bit accumulator is refilled several bytes
// at a time. Windows without an entry, and windows that would run past
// the end of the stream, fall back to the canonical walk — one bit at a
// time, first matching length wins — which also produces the truncation
// and bad-code errors; for every input the table and the walk agree.
func huffAppendDecode(dst, src []byte) ([]byte, error) {
	if len(src) < 260 {
		return nil, fmt.Errorf("compress: huffman header truncated")
	}
	var lengths [256]byte
	copy(lengths[:], src[:256])
	n := int(src[256]) | int(src[257])<<8 | int(src[258])<<16 | int(src[259])<<24
	if n == 0 {
		if dst == nil {
			return []byte{}, nil
		}
		return dst, nil
	}
	data := src[260:]
	// Every code is at least one bit long, so a symbol count beyond the
	// stream's bit count is truncated; rejecting it here also keeps a
	// hostile header from sizing the output.
	if n > 8*len(data) {
		return nil, errHuffTruncated
	}
	var count [huffMaxLen + 1]int32
	maxLen := 0
	for _, l := range lengths {
		if l > 0 {
			count[l]++
			if int(l) > maxLen {
				maxLen = int(l)
			}
		}
	}
	if maxLen == 0 {
		return nil, fmt.Errorf("compress: huffman table empty with %d symbols expected", n)
	}
	// first[l]: first canonical code of length l; offset[l]: index of its
	// first symbol in syms (symbols in canonical (length, symbol) order).
	var first [huffMaxLen + 2]uint32
	var offset [huffMaxLen + 2]int32
	var syms [256]byte
	{
		code := uint32(0)
		off := int32(0)
		for l := 1; l <= maxLen; l++ {
			first[l] = code
			offset[l] = off
			code = (code + uint32(count[l])) << 1
			off += count[l]
		}
		var next [huffMaxLen + 1]int32
		copy(next[:], offset[:huffMaxLen+1])
		for s := 0; s < 256; s++ {
			if l := lengths[s]; l > 0 {
				syms[next[l]] = byte(s)
				next[l]++
			}
		}
	}
	tb := uint(min(maxLen, huffTableBits))
	var table [1 << huffTableBits]uint16
	for l := uint(1); l <= tb; l++ {
		for d := int32(0); d < count[l]; d++ {
			code := first[l] + uint32(d)
			if code >= 1<<l {
				break // an over-full length table: the walk never reaches these
			}
			e := uint16(syms[offset[l]+d]) | uint16(l)<<8
			for i := bits.Reverse32(code) >> (32 - l); i < 1<<tb; i += 1 << l {
				table[i] = e
			}
		}
	}
	mask := uint64(1)<<tb - 1

	base := len(dst)
	dst = growBytes(dst, n)
	out := dst[base:]
	// acc holds the next nb stream bits, LSB first. Bits above nb are
	// either zero or the true bits of data[pos], so a refill may OR them
	// in again.
	pos := 0
	var acc uint64
	var nb uint
	for i := range out {
		if nb < tb {
			if pos+8 <= len(data) {
				acc |= binary.LittleEndian.Uint64(data[pos:]) << nb
				pos += int(63-nb) >> 3
				nb |= 56
			} else {
				for nb <= 56 && pos < len(data) {
					acc |= uint64(data[pos]) << nb
					pos++
					nb += 8
				}
			}
		}
		if e := table[acc&mask]; e != 0 && uint(e>>8) <= nb {
			out[i] = byte(e)
			acc >>= e >> 8
			nb -= uint(e >> 8)
			continue
		}
		// Canonical walk: bits accumulate MSB-first into the running code.
		var code uint32
		l := 0
		for {
			if nb == 0 {
				if pos >= len(data) {
					return nil, errHuffTruncated
				}
				acc = uint64(data[pos])
				pos++
				nb = 8
			}
			code = code<<1 | uint32(acc&1)
			acc >>= 1
			nb--
			l++
			if l > maxLen {
				return nil, fmt.Errorf("compress: huffman bad code")
			}
			if d := int32(code) - int32(first[l]); d >= 0 && d < count[l] {
				out[i] = syms[offset[l]+d]
				break
			}
		}
	}
	return dst, nil
}

var errHuffTruncated = errors.New("compress: huffman stream truncated")
