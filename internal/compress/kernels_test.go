package compress

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"tunable/internal/imagery"
	"tunable/internal/wavelet"
)

// naiveSuffixArray sorts the suffixes of data directly, with the sentinel
// semantics of suffixArray: the empty suffix len(data) sorts first and a
// proper prefix sorts before its extensions.
func naiveSuffixArray(data []byte) []int32 {
	sa := make([]int32, len(data)+1)
	for i := range sa {
		sa[i] = int32(i)
	}
	slices.SortFunc(sa, func(a, b int32) int { return bytes.Compare(data[a:], data[b:]) })
	return sa
}

func checkSuffixArray(t *testing.T, name string, data []byte) {
	t.Helper()
	got, want := suffixArray(data), naiveSuffixArray(data)
	if !slices.Equal(got, want) {
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("%s (%d bytes): suffix array differs at rank %d: got %d, want %d",
					name, len(data), k, got[k], want[k])
			}
		}
		t.Fatalf("%s: suffix array length %d, want %d", name, len(got), len(want))
	}
}

// waveletBlocks returns the RLE1-coded 64 KiB blocks of a wavelet chunk,
// the exact input BZW hands to the suffix sort.
func waveletBlocks(tb testing.TB) [][]byte {
	tb.Helper()
	pyr, err := wavelet.Decompose(imagery.Generate(512, 99), 4)
	if err != nil {
		tb.Fatal(err)
	}
	ch, err := pyr.ExtractRegion(4, 256, 256, 256, 0)
	if err != nil {
		tb.Fatal(err)
	}
	data := ch.Encode()
	var blocks [][]byte
	for off := 0; off < len(data); off += bzwBlock {
		blocks = append(blocks, rle1AppendEncode(nil, data[off:min(off+bzwBlock, len(data))]))
	}
	return blocks
}

func TestSuffixArrayMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	random := make([]byte, 5000)
	rng.Read(random)
	small := make([]byte, 3000)
	for i := range small {
		small[i] = byte(rng.Intn(3)) // few symbols: deep recursion
	}
	// RLE1-style runs: four equal bytes then a run-length byte.
	var rle []byte
	for i := 0; i < 800; i++ {
		b := byte(rng.Intn(4))
		rle = append(rle, b, b, b, b, byte(rng.Intn(3)))
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"one", []byte{9}},
		{"two", []byte{2, 1}},
		{"all-equal", bytes.Repeat([]byte{0}, 2000)},
		{"all-0xff", bytes.Repeat([]byte{0xff}, 1000)},
		{"period2", bytes.Repeat([]byte("ab"), 1000)},
		{"period2-desc", bytes.Repeat([]byte("ba"), 1000)},
		{"period3", bytes.Repeat([]byte{3, 1, 2}, 700)},
		{"rle1-runs", rle},
		{"ternary", small},
		{"random", random},
	}
	for _, c := range cases {
		checkSuffixArray(t, c.name, c.data)
	}
	blocks := waveletBlocks(t)
	if len(blocks[0]) < bzwBlock/2 {
		t.Fatalf("wavelet block only %d bytes after RLE1", len(blocks[0]))
	}
	checkSuffixArray(t, "wavelet-block", blocks[0])
	full := make([]byte, bzwBlock)
	rng.Read(full)
	checkSuffixArray(t, "random-64k", full)
}

func FuzzSuffixArray(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("mississippi"))
	f.Add(bytes.Repeat([]byte{1, 2}, 300))
	f.Add([]byte{5, 5, 5, 5, 0, 7, 7, 7, 7, 2, 5, 5, 5, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			data = data[:1<<12]
		}
		checkSuffixArray(t, "fuzz", data)
	})
}

// walkDecode is the reference Huffman decoder: the canonical walk alone,
// one bit at a time, with the same header checks and errors as
// huffAppendDecode.
func walkDecode(src []byte) ([]byte, error) {
	if len(src) < 260 {
		return nil, errors.New("compress: huffman header truncated")
	}
	n := int(src[256]) | int(src[257])<<8 | int(src[258])<<16 | int(src[259])<<24
	data := src[260:]
	if n == 0 {
		return []byte{}, nil
	}
	if n > 8*len(data) {
		return nil, errHuffTruncated
	}
	var count [huffMaxLen + 2]int32
	maxLen := 0
	for _, l := range src[:256] {
		if l > 0 {
			count[l]++
			maxLen = max(maxLen, int(l))
		}
	}
	if maxLen == 0 {
		return nil, errors.New("compress: huffman table empty")
	}
	var lengths [256]byte
	copy(lengths[:], src[:256])
	codes := canonicalCodes(lengths)
	out := make([]byte, 0, n)
	bit := 0
	for len(out) < n {
		var code uint32
		l := 0
	walk:
		for {
			if bit >= 8*len(data) {
				return nil, errHuffTruncated
			}
			code = code<<1 | uint32(data[bit>>3]>>(bit&7)&1)
			bit++
			l++
			if l > maxLen {
				return nil, errors.New("compress: huffman bad code")
			}
			for s := 0; s < 256; s++ {
				if int(lengths[s]) == l && codes[s] == code {
					out = append(out, byte(s))
					break walk
				}
			}
		}
	}
	return out, nil
}

// sameResult reports whether two decoder results agree: equal output, or
// errors with equal text (the empty-table message carries a count).
func sameResult(a []byte, aErr error, b []byte, bErr error) bool {
	if (aErr == nil) != (bErr == nil) {
		return false
	}
	if aErr != nil {
		return strings.HasPrefix(aErr.Error(), bErr.Error())
	}
	return bytes.Equal(a, b)
}

// fibPayload has Fibonacci symbol frequencies, which drive Huffman code
// lengths to one per symbol rank: with k symbols the rarest codes are
// k-1 bits, far beyond the lookup table. The rarest symbol comes last so
// that cutting the stream short lands inside a long code.
func fibPayload(k int) []byte {
	var out []byte
	a, b := 1, 1
	for s := k - 1; s >= 0; s-- {
		out = append(out, bytes.Repeat([]byte{byte(s)}, a)...)
		a, b = b, a+b
	}
	rand.New(rand.NewSource(3)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	// Move one rarest symbol to the end.
	i := bytes.IndexByte(out, byte(k-1))
	out = append(append(out[:i:i], out[i+1:]...), byte(k-1))
	return out
}

func TestHuffmanLongCodes(t *testing.T) {
	data := fibPayload(20)
	enc := huffEncode(data)
	maxLen := slices.Max(enc[:256])
	if maxLen <= huffTableBits {
		t.Fatalf("longest code %d bits, want > %d to reach the slow path", maxLen, huffTableBits)
	}
	dec, err := huffDecode(enc)
	if err != nil || !bytes.Equal(dec, data) {
		t.Fatalf("long-code round trip: err %v", err)
	}
	// Every cut of the bitstream is a truncated stream: each of the last
	// 32 bytes, then a stride through the rest.
	for cut := len(enc) - 1; cut >= 260; cut-- {
		if cut < len(enc)-32 {
			cut = max(260, cut-96)
		}
		_, err := huffDecode(enc[:cut])
		if !errors.Is(err, errHuffTruncated) {
			t.Fatalf("cut at %d of %d: err %v, want truncation", cut, len(enc), err)
		}
	}
}

func TestHuffmanTruncatedStream(t *testing.T) {
	data := bytes.Repeat([]byte("huffman payload with a skewed alphabet "), 40)
	enc := huffEncode(data)
	// Dropping the last byte leaves the header's count plausible, so the
	// decoder runs out of bits mid-stream; dropping most of the stream
	// trips the up-front check.
	for _, cut := range []int{len(enc) - 1, 261} {
		_, err := huffDecode(enc[:cut])
		if err == nil || err.Error() != "compress: huffman stream truncated" {
			t.Fatalf("cut at %d: err %v", cut, err)
		}
	}
}

// huffHeader builds a Huffman payload from explicit code lengths.
func huffHeader(lengths map[byte]byte, n int, stream ...byte) []byte {
	src := make([]byte, 260, 260+len(stream))
	for s, l := range lengths {
		src[s] = l
	}
	src[256], src[257], src[258], src[259] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
	return append(src, stream...)
}

func TestHuffmanOverlongCodes(t *testing.T) {
	// Symbol 7 has code "0"; symbol 9 has the 13-bit code 1 followed by
	// twelve 0s. The code is incomplete: thirteen 1s match nothing.
	lengths := map[byte]byte{7: 1, 9: 13}
	cases := []struct {
		name string
		src  []byte
		want []byte
		err  string
	}{
		{"long code", huffHeader(lengths, 2, 0x01, 0x00), []byte{9, 7}, ""},
		{"long code cut", huffHeader(lengths, 1, 0x01), nil, "compress: huffman stream truncated"},
		{"unassigned code", huffHeader(lengths, 1, 0xff, 0xff), nil, "compress: huffman bad code"},
		{"count beyond stream", huffHeader(lengths, 17, 0x00, 0x00), nil, "compress: huffman stream truncated"},
		{"lengths past 32 bits", huffHeader(map[byte]byte{1: 1, 2: 40}, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff), nil, "compress: huffman bad code"},
	}
	for _, c := range cases {
		got, err := huffDecode(c.src)
		if c.err != "" {
			if err == nil || err.Error() != c.err {
				t.Fatalf("%s: err %v, want %q", c.name, err, c.err)
			}
			continue
		}
		if err != nil || !bytes.Equal(got, c.want) {
			t.Fatalf("%s: got %v, %v; want %v", c.name, got, err, c.want)
		}
	}
}

// The lookup table must agree with the canonical walk on every input,
// including length tables that are over-full or incomplete.
func TestHuffmanDecodeMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 400; iter++ {
		lengths := map[byte]byte{}
		for k := rng.Intn(40) + 1; k > 0; k-- {
			lengths[byte(rng.Intn(256))] = byte(rng.Intn(16) + 1)
		}
		stream := make([]byte, rng.Intn(64))
		rng.Read(stream)
		src := huffHeader(lengths, rng.Intn(8*len(stream)+2), stream...)
		got, err := huffDecode(src)
		want, wantErr := walkDecode(src)
		if !sameResult(got, err, want, wantErr) {
			t.Fatalf("iter %d: table decoder (%v, %v) != walk (%v, %v)", iter, got, err, want, wantErr)
		}
	}
	for _, data := range [][]byte{fibPayload(20), bytes.Repeat([]byte("abracadabra"), 50)} {
		enc := huffEncode(data)
		got, err := huffDecode(enc)
		want, wantErr := walkDecode(enc)
		if !sameResult(got, err, want, wantErr) || !bytes.Equal(got, data) {
			t.Fatalf("encoded payload: table and walk disagree")
		}
	}
}

func BenchmarkSuffixArray(b *testing.B) {
	blocks := waveletBlocks(b)
	total := 0
	for _, blk := range blocks {
		total += len(blk)
	}
	sc := &saScratch{}
	b.SetBytes(int64(total))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, blk := range blocks {
			suffixArrayInto(sc, blk)
		}
	}
}

func BenchmarkHuffmanDecode(b *testing.B) {
	// The Huffman stage's real input: the ZRLE output of a BZW block.
	blk := waveletBlocks(b)[0]
	bwt, _ := bwtForward(blk)
	mtf := make([]byte, len(bwt))
	mtfEncodeInto(mtf, bwt)
	zr := zrleAppendEncode(nil, mtf)
	enc := huffEncode(zr)
	var out []byte
	b.SetBytes(int64(len(zr)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		out, err = huffAppendDecode(out[:0], enc)
		if err != nil {
			b.Fatal(err)
		}
	}
}
