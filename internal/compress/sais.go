package compress

import "slices"

// Suffix sorting by induced sorting (SA-IS; Nong, Zhang & Chan, "Two
// Efficient Algorithms for Linear Time Suffix Array Construction"). The
// structure follows the standard library's index/suffixarray (BSD
// licence): the suffix array doubles as the work queue of every induction
// scan and as the storage for the reduced problem, so the only extra
// space is the per-level frequency and bucket arrays.
//
// One level runs a fixed sequence of linear scans:
//
//  1. placeLMS puts each LMS-substring at the end of its first
//     character's bucket;
//  2. induceSubL and induceSubS sort the LMS-substrings by induction;
//  3. lmsLength and assignID name them (equal substrings share a name);
//  4. if names repeat, the string of names is sorted recursively
//     (it is at most half as long), which orders the LMS-suffixes;
//  5. expand seeds the buckets with the sorted LMS-suffixes, and induceL
//     and induceS induce every other suffix from them.
//
// So T(n) = O(n) + T(n/2) = O(n). The text ends with an implicit
// sentinel smaller than every symbol; it is never stored, so the result
// lists the len(text) real suffixes only.
//
// The top level runs on the block's bytes and the recursion on int32
// names; both are instances of the same generic code.

type saSymbol interface{ ~byte | ~int32 }

// sais writes the suffix array of text (symbols in [0, textMax)) to sa,
// which must have len(text) entries, all zero. tmp holds the frequency
// and bucket arrays: 2·textMax entries for this level, the rest for the
// recursion. A reduced alphabet is at most half the text it names, and
// each reduced text at most half the one before, so 2·textMax +
// 2·len(text) entries cover every level.
func sais[T saSymbol](text []T, textMax int, sa, tmp []int32) {
	switch len(text) {
	case 0:
		return
	case 1:
		sa[0] = 0
		return
	}
	freq, bucket := tmp[:textMax], tmp[textMax:2*textMax]
	saFreq(text, freq)

	numLMS := placeLMS(text, sa, freq, bucket)
	if numLMS > 1 {
		induceSubL(text, sa, freq, bucket)
		induceSubS(text, sa, freq, bucket)
		lmsLength(text, sa)
		maxID := assignID(text, sa, numLMS)
		if maxID < numLMS {
			// Names repeat: sort the reduced string recursively. mapLMS
			// packs it at the top of sa; its suffix array lands at the
			// bottom, and the middle is free.
			mapLMS(sa, numLMS)
			sub := sa[:numLMS]
			clear(sub)
			sais(sa[len(sa)-numLMS:], maxID, sub, tmp[2*textMax:])
			unmapLMS(text, sa, numLMS)
		} else {
			// Every LMS-substring is unique, so the LMS-suffixes sort
			// exactly as their leading substrings already do.
			copy(sa, sa[len(sa)-numLMS:])
		}
		expand(text, sa, freq, bucket, numLMS)
	}
	induceL(text, sa, freq, bucket)
	induceS(text, sa, freq, bucket)
}

func saFreq[T saSymbol](text []T, freq []int32) {
	clear(freq)
	for _, c := range text {
		freq[c]++
	}
}

// bucketMin stores in bucket[c] the first index of c's bucket.
func bucketMin(freq, bucket []int32) {
	total := int32(0)
	for i, n := range freq {
		bucket[i] = total
		total += n
	}
}

// bucketMax stores in bucket[c] one past the last index of c's bucket.
func bucketMax(freq, bucket []int32) {
	total := int32(0)
	for i, n := range freq {
		total += n
		bucket[i] = total
	}
}

// The scans below classify positions on the fly, walking the text
// backwards: position i is S-type if text[i] < text[i+1], or if they are
// equal and i+1 is S-type; otherwise it is L-type. An LMS position is an
// S-type one preceded by an L-type one. Every LMS position is ≥ 1, so 0
// can mark an empty slot of sa until induceL, which places the real
// suffix 0.

// placeLMS puts each LMS position at the right end of the bucket of its
// character and returns how many there are. The implicit sentinel is the
// last LMS position but has no bucket: callers treat it as sa[-1]. When
// there are several, the leftmost LMS position starts no earlier
// substring's end and is dropped, so sa holds substring ends.
func placeLMS[T saSymbol](text []T, sa, freq, bucket []int32) int {
	bucketMax(freq, bucket)
	numLMS := 0
	lastB := int32(-1)
	var c0, c1 T
	isTypeS := false
	for i := len(text) - 1; i >= 0; i-- {
		c0, c1 = text[i], c0
		if c0 < c1 {
			isTypeS = true
		} else if c0 > c1 && isTypeS {
			isTypeS = false
			b := bucket[c1] - 1
			bucket[c1] = b
			sa[b] = int32(i + 1)
			lastB = b
			numLMS++
		}
	}
	if numLMS > 1 {
		sa[lastB] = 0
	}
	return numLMS
}

// induceSubL scans sa left to right; each entry j > 0 is a sorted suffix
// whose predecessor j-1 is L-type, so j-1 goes to the next free slot at
// the left of its bucket. Predecessors that are themselves preceded by an
// S-type position are negated and left for induceSubS; everything else
// is cleared, so only the leftmost L-type position of each LMS-substring
// survives.
func induceSubL[T saSymbol](text []T, sa, freq, bucket []int32) {
	bucketMin(freq, bucket)
	// The sentinel (sa[-1]) induces the last position, always L-type.
	k := len(text) - 1
	c0, c1 := text[k-1], text[k]
	if c0 < c1 {
		k = -k
	}
	// b caches bucket[cB]: consecutive entries mostly share a bucket.
	cB := c1
	b := bucket[cB]
	sa[b] = int32(k)
	b++
	for i := 0; i < len(sa); i++ {
		j := int(sa[i])
		if j == 0 {
			continue
		}
		if j < 0 {
			sa[i] = int32(-j)
			continue
		}
		sa[i] = 0
		k := j - 1
		c0, c1 := text[k-1], text[k]
		if c0 < c1 {
			k = -k
		}
		if cB != c1 {
			bucket[cB] = b
			cB = c1
			b = bucket[cB]
		}
		sa[b] = int32(k)
		b++
	}
}

// induceSubS is the mirror scan, right to left, inducing S-type
// predecessors into the right ends of their buckets. The LMS-substring
// starts it discovers are packed, sorted by substring, into
// sa[len(sa)-numLMS:]; everything else is cleared.
func induceSubS[T saSymbol](text []T, sa, freq, bucket []int32) {
	bucketMax(freq, bucket)
	var cB T
	b := bucket[cB]
	top := len(sa)
	for i := len(sa) - 1; i >= 0; i-- {
		j := int(sa[i])
		if j == 0 {
			continue
		}
		sa[i] = 0
		if j < 0 {
			top--
			sa[top] = int32(-j)
			continue
		}
		k := j - 1
		c0, c1 := text[k-1], text[k]
		if c0 > c1 {
			k = -k
		}
		if cB != c1 {
			bucket[cB] = b
			cB = c1
			b = bucket[cB]
		}
		b--
		sa[b] = int32(k)
	}
}

// lmsLength records, at sa[j/2], the length of the LMS-substring starting
// at j, its closing LMS character included. Two LMS positions are never
// adjacent, so the slots are distinct, and they stay below the sorted
// starts at the top of sa. The last substring, which ends in the
// sentinel, is recorded as 0 so that it differs from every other.
func lmsLength[T saSymbol](text []T, sa []int32) {
	end := 0
	var c0, c1 T
	isTypeS := false
	for i := len(text) - 1; i >= 0; i-- {
		c0, c1 = text[i], c0
		if c0 < c1 {
			isTypeS = true
		} else if c0 > c1 && isTypeS {
			isTypeS = false
			j := i + 1
			code := int32(0)
			if end != 0 {
				code = int32(end - j)
			}
			sa[j>>1] = code
			end = j + 1
		}
	}
}

// assignID walks the sorted LMS-substrings, numbering them from 1 and
// giving equal substrings equal numbers; the number replaces the length
// at sa[j/2]. It returns the largest number.
func assignID[T saSymbol](text []T, sa []int32, numLMS int) int {
	id := 0
	lastLen := int32(-1)
	lastPos := int32(0)
	for _, j := range sa[len(sa)-numLMS:] {
		n := sa[j/2]
		if n != lastLen || !slices.Equal(text[j:j+n], text[lastPos:lastPos+n]) {
			id++
			lastPos, lastLen = j, n
		}
		sa[j/2] = int32(id)
	}
	return id
}

// mapLMS packs the names left at sa[j/2], in text order and shifted to
// start at 0, into the top of sa: the reduced string for the recursion.
func mapLMS(sa []int32, numLMS int) {
	w := len(sa)
	for i := len(sa) / 2; i >= 0; i-- {
		if j := sa[i]; j > 0 {
			w--
			sa[w] = j - 1
		}
	}
}

// unmapLMS turns the recursion's answer in sa[:numLMS], a sorted list of
// reduced-string positions, back into text positions: the K-th reduced
// symbol is the K-th LMS position from the left.
func unmapLMS[T saSymbol](text []T, sa []int32, numLMS int) {
	unmap := sa[len(sa)-numLMS:]
	j := len(unmap)
	var c0, c1 T
	isTypeS := false
	for i := len(text) - 1; i >= 0; i-- {
		c0, c1 = text[i], c0
		if c0 < c1 {
			isTypeS = true
		} else if c0 > c1 && isTypeS {
			isTypeS = false
			j--
			unmap[j] = int32(i + 1)
		}
	}
	for i, k := range sa[:numLMS] {
		sa[i] = unmap[k]
	}
}

// expand moves the sorted LMS-suffixes from sa[:numLMS] to the right ends
// of their buckets, keeping their order, and clears every other slot.
func expand[T saSymbol](text []T, sa, freq, bucket []int32, numLMS int) {
	bucketMax(freq, bucket)
	x := numLMS - 1
	saX := sa[x]
	c := text[saX]
	b := bucket[c] - 1
	bucket[c] = b
	for i := len(sa) - 1; i >= 0; i-- {
		if i != int(b) {
			sa[i] = 0
			continue
		}
		sa[i] = saX
		if x > 0 {
			x--
			saX = sa[x]
			c = text[saX]
			b = bucket[c] - 1
			bucket[c] = b
		}
	}
}

// induceL is induceSubL over whole suffixes: it keeps every L-type
// position it places, negating those preceded by an S-type position so
// that induceS picks them up. Position 0 has no predecessor and is left
// as is; a zero slot is then either empty or the real suffix 0, and
// induceS never needs to tell them apart.
func induceL[T saSymbol](text []T, sa, freq, bucket []int32) {
	bucketMin(freq, bucket)
	k := len(text) - 1
	c0, c1 := text[k-1], text[k]
	if c0 < c1 {
		k = -k
	}
	cB := c1
	b := bucket[cB]
	sa[b] = int32(k)
	b++
	for i := 0; i < len(sa); i++ {
		j := int(sa[i])
		if j <= 0 {
			continue
		}
		k := j - 1
		c1 := text[k]
		if k > 0 {
			if c0 := text[k-1]; c0 < c1 {
				k = -k
			}
		}
		if cB != c1 {
			bucket[cB] = b
			cB = c1
			b = bucket[cB]
		}
		sa[b] = int32(k)
		b++
	}
}

// induceS scans right to left, restoring each negated entry and inducing
// its S-type predecessor into the right end of its bucket; the result is
// the finished suffix array.
func induceS[T saSymbol](text []T, sa, freq, bucket []int32) {
	bucketMax(freq, bucket)
	var cB T
	b := bucket[cB]
	for i := len(sa) - 1; i >= 0; i-- {
		j := int(sa[i])
		if j >= 0 {
			continue
		}
		j = -j
		sa[i] = int32(j)
		k := j - 1
		c1 := text[k]
		if k > 0 {
			if c0 := text[k-1]; c0 <= c1 {
				k = -k
			}
		}
		if cB != c1 {
			bucket[cB] = b
			cB = c1
			b = bucket[cB]
		}
		b--
		sa[b] = int32(k)
	}
}
