package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// Histogram bucket geometry: values are binned into octaves [2^k, 2^k+1)
// split into 8 linear sub-buckets each, HDR-histogram style, so every
// bucket spans a 12.5% relative range and a quantile estimate (bucket
// midpoint) is within ~6.25% of the true sample. The octave range covers
// 2^-31 (~0.47ns, below any clock tick) through 2^34 (~1.7e10 — years of
// seconds, or batch sizes far beyond memory), so in practice nothing
// lands in the under/overflow buckets.
const (
	subBits   = 3
	subCount  = 1 << subBits
	minOctave = -31
	maxOctave = 33
	// bucket 0 holds zeros/negatives/underflow; the last bucket overflow.
	numBuckets = (maxOctave-minOctave+1)*subCount + 2
)

// Histogram is a fixed-size log-bucketed histogram. Observe is a single
// atomic add per bucket plus CAS loops for sum and max; it is safe for
// any number of concurrent writers and readers.
type Histogram struct {
	buckets [numBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     Counter
	max     atomic.Uint64 // float64 bits; monotone under CAS
}

// bucketIndex maps a value to its bucket.
func bucketIndex(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return 0
	}
	if math.IsInf(v, 1) {
		return numBuckets - 1
	}
	frac, exp := math.Frexp(v) // v = frac * 2^exp, frac in [0.5, 1)
	octave := exp - 1          // v in [2^octave, 2^(octave+1))
	if octave < minOctave {
		return 1 // underflow: smallest real bucket
	}
	if octave > maxOctave {
		return numBuckets - 1
	}
	sub := int((frac - 0.5) * 2 * subCount)
	if sub >= subCount {
		sub = subCount - 1
	}
	return 1 + (octave-minOctave)*subCount + sub
}

// bucketMid returns the midpoint of bucket i's value range, the
// representative returned by Quantile.
func bucketMid(i int) float64 {
	if i <= 0 {
		return 0
	}
	if i >= numBuckets-1 {
		return math.Ldexp(1, maxOctave+1) // lower edge of the overflow range
	}
	i--
	octave := minOctave + i/subCount
	sub := i % subCount
	lo := math.Ldexp(1+float64(sub)/subCount, octave)
	hi := math.Ldexp(1+float64(sub+1)/subCount, octave)
	return (lo + hi) / 2
}

// Observe records one sample. Non-finite samples are dropped entirely:
// a NaN would otherwise poison the running sum and max (NaN defeats
// every >= comparison, so the max CAS would store it), turning every
// later scrape of this series into NaN.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if h.max.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// Max returns the largest observed sample (exact, not bucketed).
func (h *Histogram) Max() float64 { return math.Float64frombits(h.max.Load()) }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the observed samples.
// The estimate is the midpoint of the bucket holding the rank-⌈q·n⌉
// sample, so its relative error is bounded by half the bucket width
// (~6.25%); q = 1 returns the exact maximum. With no samples it returns
// 0 rather than the Prometheus-conventional NaN: quantiles of empty
// histograms flow into JSON endpoints and federation rollups, where a
// NaN either fails encoding or propagates through downstream arithmetic.
// It reads the histogram's Snapshot; a caller wanting several quantiles
// takes one snapshot and reads them all off it.
func (h *Histogram) Quantile(q float64) float64 { return h.Snapshot().Quantile(q) }

// BucketCount is one occupied bucket in a HistogramSnapshot: the bucket
// index (in this package's fixed log-bucket geometry) and its count.
type BucketCount struct {
	Index int    `json:"i"`
	N     uint64 `json:"n"`
}

// HistogramSnapshot is a point-in-time copy of a histogram in a
// mergeable form: the sparse occupied buckets plus count, sum, and exact
// max. Unlike the quantiles in the text exposition, snapshots from
// different processes share the same bucket geometry and so can be
// merged exactly — which is what makes a cluster-wide p99 computable
// from per-shard scrapes.
type HistogramSnapshot struct {
	Count   uint64        `json:"count"`
	Sum     float64       `json:"sum"`
	Max     float64       `json:"max"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot copies the histogram's current state. Concurrent Observes may
// land between field reads; the snapshot is still internally usable (the
// quantile walk falls back to max past the bucketed mass, like Quantile).
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.Count(), Sum: h.Sum(), Max: h.Max()}
	for i := 0; i < numBuckets; i++ {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, BucketCount{Index: i, N: n})
		}
	}
	return s
}

// Merge folds another snapshot into s. Both snapshots must come from
// this package's bucket geometry; indexes outside it are clamped into
// the under/overflow buckets rather than trusted.
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) {
	s.Count += o.Count
	s.Sum += o.Sum
	if o.Max > s.Max {
		s.Max = o.Max
	}
	if len(o.Buckets) == 0 {
		return
	}
	merged := make(map[int]uint64, len(s.Buckets)+len(o.Buckets))
	for _, b := range s.Buckets {
		merged[b.Index] += b.N
	}
	for _, b := range o.Buckets {
		i := b.Index
		if i < 0 {
			i = 0
		}
		if i >= numBuckets {
			i = numBuckets - 1
		}
		merged[i] += b.N
	}
	s.Buckets = s.Buckets[:0]
	for i, n := range merged {
		s.Buckets = append(s.Buckets, BucketCount{Index: i, N: n})
	}
	sort.Slice(s.Buckets, func(i, j int) bool { return s.Buckets[i].Index < s.Buckets[j].Index })
}

// Quantile estimates the q-quantile of the snapshot, the contract
// Histogram.Quantile states: bucket-midpoint estimates, exact max at
// q = 1, 0 when empty (never NaN — snapshots feed federation rollups and
// JSON responses). A rank past the bucketed mass — concurrent writers
// raced Count ahead of the buckets — answers the max, the honest answer
// for the tail.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q >= 1 {
		return s.Max
	}
	if q < 0 {
		q = 0
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for _, b := range s.Buckets {
		cum += b.N
		if cum >= rank {
			i := b.Index
			if i < 0 {
				i = 0
			}
			if i >= numBuckets {
				i = numBuckets - 1
			}
			return bucketMid(i)
		}
	}
	return s.Max
}
