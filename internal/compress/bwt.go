package compress

import (
	"fmt"
	"slices"
	"sync"
)

// saScratch holds the suffix sort's working arrays, recycled through a
// sync.Pool because BZW sorts once per 64 KiB block: sa is the suffix
// array (sentinel included) and tmp the per-level frequency and bucket
// space of sais.
type saScratch struct {
	sa, tmp []int32
}

var saPool = sync.Pool{New: func() any { return &saScratch{} }}

func (s *saScratch) grow(n int) {
	if cap(s.sa) < n+1 {
		s.sa = make([]int32, n+1)
	}
	s.sa = s.sa[:n+1]
	t := 2*256 + 2*n
	if cap(s.tmp) < t {
		s.tmp = make([]int32, t)
	}
	s.tmp = s.tmp[:t]
}

// suffixArray returns a fresh copy of the suffix array of data plus a
// virtual sentinel smaller than every byte: len(data)+1 entries, the
// first always the sentinel suffix len(data).
func suffixArray(data []byte) []int32 {
	sc := saPool.Get().(*saScratch)
	defer saPool.Put(sc)
	return slices.Clone(suffixArrayInto(sc, data))
}

// suffixArrayInto computes the suffix array into sc.sa by induced sorting
// (sais, linear time) and returns it. The slice is only valid until sc is
// reused.
func suffixArrayInto(sc *saScratch, data []byte) []int32 {
	sc.grow(len(data))
	sa := sc.sa
	sa[0] = int32(len(data))
	clear(sa[1:])
	sais(data, 256, sa[1:], sc.tmp)
	return sa
}

// bwtForward computes the Burrows–Wheeler transform of data with an
// implicit sentinel: the output has the same length as the input, and
// primary is the row at which the (omitted) sentinel character sits.
// Suffix arrays are unique, so the output depends only on data, not on
// how the suffixes are sorted.
func bwtForward(data []byte) (out []byte, primary int) {
	return bwtAppendForward(nil, data)
}

// bwtAppendForward appends the transform of data to dst.
func bwtAppendForward(dst, data []byte) (out []byte, primary int) {
	sc := saPool.Get().(*saScratch)
	defer saPool.Put(sc)
	sa := suffixArrayInto(sc, data)
	out = dst
	for i, p := range sa {
		if p == 0 {
			primary = i
			continue
		}
		out = append(out, data[p-1])
	}
	return out, primary
}

// bwtInverse scratch: the LF-mapping array.
type bwtInvScratch struct {
	lf []int32
}

var bwtInvPool = sync.Pool{New: func() any { return &bwtInvScratch{} }}

// bwtInverse inverts bwtForward.
func bwtInverse(bwt []byte, primary int) ([]byte, error) {
	return bwtAppendInverse(nil, bwt, primary)
}

// bwtAppendInverse appends the inverse transform to dst.
func bwtAppendInverse(dst, bwt []byte, primary int) ([]byte, error) {
	n := len(bwt)
	if n == 0 {
		if dst == nil {
			return []byte{}, nil
		}
		return dst, nil
	}
	if primary < 1 || primary > n {
		return nil, fmt.Errorf("compress: bwt primary index %d out of range", primary)
	}
	// F-column starts: row 0 is the sentinel; byte b's rows start after all
	// smaller bytes.
	var cnt [256]int32
	for _, b := range bwt {
		cnt[b]++
	}
	var start [256]int32
	s := int32(1)
	for b := 0; b < 256; b++ {
		start[b] = s
		s += cnt[b]
	}
	// LF mapping over the n+1 rows (sentinel row maps to row 0).
	sc := bwtInvPool.Get().(*bwtInvScratch)
	defer bwtInvPool.Put(sc)
	if cap(sc.lf) < n+1 {
		sc.lf = make([]int32, n+1)
	}
	lf := sc.lf[:n+1]
	var occ [256]int32
	for i := 0; i < primary; i++ {
		b := bwt[i]
		lf[i] = start[b] + occ[b]
		occ[b]++
	}
	lf[primary] = 0
	for i := primary + 1; i <= n; i++ {
		b := bwt[i-1]
		lf[i] = start[b] + occ[b]
		occ[b]++
	}
	// Row 0 is the sentinel-only suffix; L[0] = last byte of the text.
	base := len(dst)
	dst = growBytes(dst, n)
	out := dst[base:]
	r := 0
	for k := n - 1; k >= 0; k-- {
		if r == primary {
			return nil, fmt.Errorf("compress: bwt cycle hit sentinel early")
		}
		j := r
		if r > primary {
			j = r - 1
		}
		out[k] = bwt[j]
		r = int(lf[r])
	}
	if r != primary {
		return nil, fmt.Errorf("compress: bwt cycle did not close")
	}
	return dst, nil
}
