package main

import "hash/fnv"

// rng is a splitmix64 stream. Every input the benchmark feeds the program
// (image seeds, codec draws, view picks, adaptation seed lists) comes from
// one of these, keyed by the --seed flag and a stream label, so the same
// seed always yields the same input sequence.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string) *rng {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return &rng{s: seed*0x9E3779B97F4A7C15 ^ h.Sum64()}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float64() float64 { return float64(r.next()>>11) / float64(1<<53) }

// pick draws an index from a cumulative weight table.
func (r *rng) pick(cum []float64) int {
	u := r.float64() * cum[len(cum)-1]
	for i, c := range cum {
		if u < c {
			return i
		}
	}
	return len(cum) - 1
}

// seedList draws n distinct non-zero seeds for the adaptation workloads.
func seedList(seed uint64, stream string, n int) []uint64 {
	r := newRNG(seed, stream)
	seen := make(map[uint64]bool, n)
	out := make([]uint64, 0, n)
	for len(out) < n {
		s := r.next()>>33 + 1
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
