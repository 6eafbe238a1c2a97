package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs:
// the smallest sample with at least p% of the samples at or below it. It
// returns NaN for an empty sample. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median returns the middle value of xs, averaging the two middle values
// of an even-sized sample. It returns NaN for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// beyond returns how many samples lie strictly above the p-th percentile:
// a percentile is worth reporting only when at least ten do.
func beyond(xs []float64, p float64) int {
	q := percentile(xs, p)
	n := 0
	for _, x := range xs {
		if x > q {
			n++
		}
	}
	return n
}

// lateness returns how far past its due time a request was sent, or zero
// when it went out on time or early.
func lateness(due, sent time.Time) time.Duration {
	if d := sent.Sub(due); d > 0 {
		return d
	}
	return 0
}

// ms and us convert a duration to fractional milliseconds and microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// fnv64 is FNV-1a over 64-bit words, little-endian byte order: the
// fingerprint hash every output check in this benchmark uses.
type fnv64 uint64

func newFNV() fnv64 { return 14695981039346656037 }

func (h fnv64) word(v uint64) fnv64 {
	for s := 0; s < 64; s += 8 {
		h = (h ^ fnv64(v>>s&0xff)) * 1099511628211
	}
	return h
}

func (h fnv64) bytes(b []byte) fnv64 {
	for _, c := range b {
		h = (h ^ fnv64(c)) * 1099511628211
	}
	return h
}

// fold32 folds the hash into 32 bits, which a JSON number carries exactly.
func (h fnv64) fold32() float64 { return float64(uint32(h) ^ uint32(h>>32)) }
