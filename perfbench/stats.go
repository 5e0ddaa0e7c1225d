package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"
)

// sample is one timed operation. A failed operation ranks above every
// success in a percentile: it misses any latency limit, however fast its
// error came back.
type sample struct {
	ms     float64
	failed bool
}

// rankSamples orders samples for percentile reads: successes by latency,
// then failures by latency.
func rankSamples(s []sample) []sample {
	out := append([]sample(nil), s...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].failed != out[j].failed {
			return !out[i].failed
		}
		return out[i].ms < out[j].ms
	})
	return out
}

// minBeyond is how many samples must lie beyond a tail percentile for it
// to be reported at that percentile.
const minBeyond = 10

// percentile reads quantile q (0..1) from samples ranked by rankSamples,
// using the nearest-rank rule. A tail quantile needs minBeyond samples
// beyond it; with fewer, the read falls back to the highest quantile that
// has them, which is returned as got. The median is exempt. An empty input
// reads as 0 at quantile 0.
func percentile(ranked []sample, q float64) (v sample, got float64) {
	n := len(ranked)
	if n == 0 {
		return sample{}, 0
	}
	got = q
	if q > 0.5 && float64(n)*(1-q) < minBeyond {
		got = math.Max(0.5, 1-float64(minBeyond)/float64(n))
	}
	i := int(math.Ceil(got*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return ranked[i], got
}

// midMean is the interquartile mean: the mean time of the middle half of
// samples ranked by rankSamples, from the 25th to the 75th percentile; a
// failed op in that half counts with its own time. It stands in for the
// median where the median sits on a cliff: with the templates drawn in
// equal shares, the median of an even number of them falls exactly
// between the third and the fourth slowest, in the gap between their
// latencies, and on extract-resident it moved 1.6 times as much as the
// goodput from run to run. An empty input reads as 0.
func midMean(ranked []sample) float64 {
	lo, hi := len(ranked)/4, len(ranked)-len(ranked)/4
	if lo >= hi {
		return 0
	}
	t := 0.0
	for _, s := range ranked[lo:hi] {
		t += s.ms
	}
	return t / float64(hi-lo)
}

// median of plain values (not failure-ranked), 0 for none.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t / float64(len(v))
}

// zipf draws ranks 0..n-1 with P(k) proportional to 1/(k+1)^s. Draws
// come in blocks of zipfBlock holding each rank its exact share (largest
// remainder), shuffled by a seeded source: one seed always gives one draw
// sequence, and every seed gives the same mix.
type zipf struct {
	r       *rand.Rand
	block   []int
	pending []int
}

const zipfBlock = 100

func newZipf(seed int64, n int, s float64) *zipf {
	w := make([]float64, n)
	total := 0.0
	for k := range w {
		w[k] = 1 / math.Pow(float64(k+1), s)
		total += w[k]
	}
	counts := make([]int, n)
	left := zipfBlock
	rem := make([]int, n)
	for k := range w {
		share := w[k] / total * zipfBlock
		counts[k] = int(share)
		left -= counts[k]
		rem[k] = k
		w[k] = share - float64(counts[k])
	}
	sort.SliceStable(rem, func(i, j int) bool { return w[rem[i]] > w[rem[j]] })
	for i := 0; i < left; i++ {
		counts[rem[i]]++
	}
	z := &zipf{r: rand.New(rand.NewSource(seed))}
	for k, c := range counts {
		for i := 0; i < c; i++ {
			z.block = append(z.block, k)
		}
	}
	return z
}

func (z *zipf) next() int {
	if len(z.pending) == 0 {
		z.pending = append([]int(nil), z.block...)
		z.r.Shuffle(len(z.pending), func(i, j int) { z.pending[i], z.pending[j] = z.pending[j], z.pending[i] })
	}
	k := z.pending[0]
	z.pending = z.pending[1:]
	return k
}

// schedule returns the due offsets of an open-loop stream at rate ops/s
// over dur: one op in each slot of 1/rate, at a point in the slot drawn
// from seed. The window holds exactly rate × dur ops on every seed, and
// no burst is longer than two ops. The draw within the slot keeps two
// streams from meeting at the same offset for a whole run: with evenly
// spaced ops, a reader and a writer whose periods divide each other keep
// the phase the seed gave them, and that phase alone moved ingest-mixed's
// read latency by a quarter from seed to seed.
func schedule(seed int64, rate float64, dur time.Duration) []time.Duration {
	gap := float64(time.Second) / rate
	rng := rand.New(rand.NewSource(seed))
	n := int(rate * dur.Seconds())
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration((float64(i) + rng.Float64()) * gap)
	}
	return out
}

// lateness is how far behind its schedule an open-loop generator sent a
// request: never negative, since a request sent early was simply on time.
func lateness(due, sent time.Time) time.Duration {
	if d := sent.Sub(due); d > 0 {
		return d
	}
	return 0
}

// tupleKey is the part of a result tuple the oracle compares.
type tupleKey struct {
	doc, sent int
	values    []string
}

// orderedDigest hashes tuples in order, with their document and sentence:
// the check for corpora nobody writes, where results are byte-identical.
func orderedDigest(ts []tupleKey) string {
	h := sha256.New()
	var b [8]byte
	for _, t := range ts {
		binary.LittleEndian.PutUint64(b[:], uint64(t.doc))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], uint64(t.sent))
		h.Write(b[:])
		h.Write([]byte(valuesKey(t.values)))
	}
	return strconv.Itoa(len(ts)) + ":" + hex.EncodeToString(h.Sum(nil)[:8])
}

// multisetDigest hashes only the values of the tuples, ignoring order and
// position: an upsert of a document with its own text moves the document
// to a new id but leaves this digest unchanged.
func multisetDigest(ts []tupleKey) string {
	keys := make([]string, len(ts))
	for i, t := range ts {
		keys[i] = valuesKey(t.values)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
	}
	return strconv.Itoa(len(ts)) + ":" + hex.EncodeToString(h.Sum(nil)[:8])
}

// valuesKey encodes one tuple's values unambiguously (length-prefixed).
func valuesKey(vs []string) string {
	var b strings.Builder
	for _, v := range vs {
		b.WriteString(strconv.Itoa(len(v)))
		b.WriteByte(':')
		b.WriteString(v)
	}
	b.WriteByte('\n')
	return b.String()
}
