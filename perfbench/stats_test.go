package main

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestPercentileRanksFailuresAboveSuccesses(t *testing.T) {
	var s []sample
	for i := 1; i <= 1000; i++ {
		s = append(s, sample{ms: float64(i)})
	}
	// Twenty fast failures: they must still rank above the slowest success.
	for i := 0; i < 20; i++ {
		s = append(s, sample{ms: 0.5, failed: true})
	}
	ranked := rankSamples(s)
	if last := ranked[len(ranked)-1]; !last.failed {
		t.Fatalf("top-ranked sample %+v, want a failure", last)
	}
	if v, _ := percentile(ranked, 0.5); v.failed || v.ms != 510 {
		t.Errorf("p50 = %+v, want the 510th success", v)
	}
	// 1020 samples: p99 ranks the 1010th, a failure.
	if v, got := percentile(ranked, 0.99); !v.failed || got != 0.99 {
		t.Errorf("p99 = %+v at q %v, want a failure at 0.99", v, got)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	mk := func(n int) []sample {
		var s []sample
		for i := 1; i <= n; i++ {
			s = append(s, sample{ms: float64(i)})
		}
		return rankSamples(s)
	}
	// 1000 samples leave exactly 10 beyond p99.
	if v, got := percentile(mk(1000), 0.99); got != 0.99 || v.ms != 990 {
		t.Errorf("n=1000: p99 = %v at q %v, want 990 at 0.99", v.ms, got)
	}
	// 500 samples: only p98 has 10 beyond it.
	if v, got := percentile(mk(500), 0.99); got != 0.98 || v.ms != 490 {
		t.Errorf("n=500: p99 falls back to %v at q %v, want 490 at 0.98", v.ms, got)
	}
	// The median is exempt from the rule.
	if v, got := percentile(mk(5), 0.5); got != 0.5 || v.ms != 3 {
		t.Errorf("n=5: p50 = %v at q %v, want 3 at 0.5", v.ms, got)
	}
	if v, got := percentile(nil, 0.99); v.ms != 0 || got != 0 {
		t.Errorf("empty: %v at %v, want 0 at 0", v.ms, got)
	}
}

func TestMidMeanAveragesTheMiddleHalf(t *testing.T) {
	// Eight successes, then four fast failures ranked above them: the
	// middle half is ranks 4..9, the last of them a failure at its own time.
	var s []sample
	for i := 1; i <= 8; i++ {
		s = append(s, sample{ms: float64(i)})
	}
	for i := 0; i < 4; i++ {
		s = append(s, sample{ms: 0.5, failed: true})
	}
	if got, want := midMean(rankSamples(s)), (4+5+6+7+8+0.5)/6; math.Abs(got-want) > 1e-9 {
		t.Errorf("midMean = %v, want %v", got, want)
	}
	// Two humps of equal size: moving one sample across the gap makes the
	// median jump from one hump to the other, the mean of the middle half
	// barely moves.
	humps := func(fast int) []sample {
		var s []sample
		for i := 0; i < 100; i++ {
			ms := 10.0
			if i < fast {
				ms = 1
			}
			s = append(s, sample{ms: ms})
		}
		return rankSamples(s)
	}
	a, b := humps(50), humps(49)
	if ma, mb := midMean(a), midMean(b); math.Abs(ma-mb) > 0.2 {
		t.Errorf("midMean moved from %v to %v", ma, mb)
	}
	if pa, _ := percentile(a, 0.5); pa.ms != 1 {
		t.Errorf("median of the even split = %v, want 1", pa.ms)
	}
	if pb, _ := percentile(b, 0.5); pb.ms != 10 {
		t.Errorf("median after one sample moved = %v, want 10", pb.ms)
	}
	if midMean(nil) != 0 {
		t.Error("midMean of nothing is not 0")
	}
}

func TestZipfIsSeededAndSkewed(t *testing.T) {
	draw := func(seed int64) []int {
		z := newZipf(seed, 3, 1.1)
		out := make([]int, 2000)
		for i := range out {
			out[i] = z.next()
		}
		return out
	}
	a, b := draw(7), draw(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different draws")
	}
	if reflect.DeepEqual(a, draw(8)) {
		t.Fatal("different seeds gave identical draws")
	}
	// Every block of zipfBlock draws holds the exact Zipf shares:
	// 1, 1/2^1.1, 1/3^1.1 normalised → 57, 26, 17 of 100.
	counts := make([]int, 3)
	for _, k := range a[:zipfBlock] {
		counts[k]++
	}
	if want := []int{57, 26, 17}; !reflect.DeepEqual(counts, want) {
		t.Errorf("counts %v in one block, want %v", counts, want)
	}
}

func TestScheduleIsSeededAndPaced(t *testing.T) {
	a := schedule(3, 100, 10*time.Second)
	if !reflect.DeepEqual(a, schedule(3, 100, 10*time.Second)) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, schedule(4, 100, 10*time.Second)) {
		t.Fatal("different seeds gave identical schedules")
	}
	// rate × duration arrivals, one in each 10ms slot, inside the window.
	if len(a) != 1000 {
		t.Errorf("%d arrivals, want 1000", len(a))
	}
	for i, d := range a {
		if slot := time.Duration(i) * 10 * time.Millisecond; d < slot || d >= slot+10*time.Millisecond {
			t.Fatalf("arrival %d at %v, outside its slot [%v, %v)", i, d, slot, slot+10*time.Millisecond)
		}
	}
	if n := len(schedule(5, scaleoutRate, 30*time.Second)); n != 30*scaleoutRate {
		t.Errorf("%d arrivals at %d/s over 30s, want %d", n, scaleoutRate, 30*scaleoutRate)
	}
}

func TestLateness(t *testing.T) {
	due := time.Unix(100, 0)
	if got := lateness(due, due.Add(-time.Millisecond)); got != 0 {
		t.Errorf("early send: %v, want 0", got)
	}
	if got := lateness(due, due.Add(3*time.Millisecond)); got != 3*time.Millisecond {
		t.Errorf("late send: %v, want 3ms", got)
	}
}

func TestDigests(t *testing.T) {
	a := []tupleKey{{1, 10, []string{"Ada", "1900"}}, {2, 20, []string{"Bo"}}}
	swapped := []tupleKey{a[1], a[0]}
	moved := []tupleKey{{7, 70, []string{"Bo"}}, {1, 10, []string{"Ada", "1900"}}}
	if orderedDigest(a) == orderedDigest(swapped) {
		t.Error("ordered digest ignores order")
	}
	if orderedDigest(a) == orderedDigest(moved) {
		t.Error("ordered digest ignores document and sentence")
	}
	if multisetDigest(a) != multisetDigest(swapped) || multisetDigest(a) != multisetDigest(moved) {
		t.Error("multiset digest depends on order or position")
	}
	// Value boundaries are part of the key: ["ab"] differs from ["a","b"].
	if multisetDigest([]tupleKey{{values: []string{"ab"}}}) == multisetDigest([]tupleKey{{values: []string{"a", "b"}}}) {
		t.Error("multiset digest conflates value boundaries")
	}
	if multisetDigest(a) == multisetDigest(a[:1]) {
		t.Error("multiset digest ignores a missing tuple")
	}
}

func TestSelfTimesAddUpToClientTime(t *testing.T) {
	start := time.Unix(0, 0)
	o := &opResult{sent: start, end: start.Add(20 * time.Millisecond), serviceMs: 15}
	o.phases.Total = 12
	o.phases.DPLI = 8
	o.phases.Extract = 8 // summed over shards: more than the total
	st, cut := selfTimes(o, 18)
	sum := 0.0
	for _, v := range st {
		sum += v
	}
	if sum < 19.999 || sum > 20.001 {
		t.Errorf("self times sum to %v, want 20", sum)
	}
	if st["server.transport"] != 2 || st["server.encode"] != 3 || st["server.queue"] != 3 {
		t.Errorf("transport/encode/queue = %v/%v/%v, want 2/3/3", st["server.transport"], st["server.encode"], st["server.queue"])
	}
	if st["engine.dpli"] != 6 || st["engine.unphased"] != 0 {
		t.Errorf("dpli %v unphased %v, want phases scaled to 6 and nothing left", st["engine.dpli"], st["engine.unphased"])
	}
	if cut != 0 {
		t.Errorf("cut %v, want 0 when every figure fits inside the one around it", cut)
	}
}

// What no boundary measures is reported as unattributed: time inside
// total_ms that no phase covers, and figures that overrun the one around
// them.
func TestUnattributedCountsOnlyUnmeasuredTime(t *testing.T) {
	start := time.Unix(0, 0)
	mk := func(req int64, serviceMs float64) opResult {
		o := opResult{kind: "query", req: req, sent: start, end: start.Add(20 * time.Millisecond), serviceMs: serviceMs}
		o.phases.Total = 10
		o.phases.DPLI = 6 // 4 ms of total_ms are in no phase
		return o
	}
	ops := []opResult{mk(1, 15), mk(2, 15), mk(3, 15), mk(4, 15), mk(5, 15)}
	handler := func(ms float64) []Span {
		var out []Span
		for req := int64(1); req <= 5; req++ {
			out = append(out, Span{Req: req, Name: "server.handler", End: int64(ms * 1e6)})
		}
		return out
	}
	a := attribute(ops, handler(18))
	if a.n != 5 || math.Abs(a.unattributed-4.0/20) > 1e-9 {
		t.Errorf("unattributed %v over %d queries, want 0.2 (4 ms unphased of 20)", a.unattributed, a.n)
	}
	// A handler span 2 ms longer than the client's adds its overrun.
	a = attribute(ops, handler(22))
	if math.Abs(a.unattributed-6.0/20) > 1e-9 {
		t.Errorf("unattributed %v, want 0.3 (4 ms unphased + 2 ms overrun of 20)", a.unattributed)
	}
}

// Only a known defect on its own workload and template may fail in a
// correct result; any other failure, or a wrong result, makes it incorrect.
func TestCorrectAllowsOnlyKnownDefects(t *testing.T) {
	defect := opResult{kind: "query", tpl: "Cafe", failed: true,
		errText: "400 bad_query: store <dir>/cafes.koko: blockstore: text id count 195 exceeds section size 12"}
	other := defect
	other.errText = "400 bad_query: shard 0 unavailable after 3 attempts"
	elsewhere := defect
	elsewhere.tpl = "Chocolate"
	wrong := opResult{kind: "query", tpl: "Title", failed: true, wrong: true, errText: "wrong result"}
	ok := opResult{kind: "query", tpl: "Title"}
	for _, c := range []struct {
		workload string
		ops      []opResult
		want     bool
	}{
		{wScaleout, []opResult{ok, defect}, true},
		{wResident, []opResult{ok, defect}, false},
		{wScaleout, []opResult{ok, other}, false},
		{wScaleout, []opResult{ok, elsewhere}, false},
		{wScaleout, []opResult{ok, wrong}, false},
	} {
		rp := newReport()
		rp.count(c.workload, c.ops)
		if rp.correct() != c.want {
			t.Errorf("%s %v: correct %v, want %v", c.workload, c.ops, rp.correct(), c.want)
		}
	}
}

func TestRoundsHoldEveryTemplateEqually(t *testing.T) {
	a := rounds(7, 6, 360)
	if !reflect.DeepEqual(a, rounds(7, 6, 360)) {
		t.Fatal("same seed gave different draws")
	}
	counts := make([]int, 6)
	for _, k := range a {
		counts[k]++
	}
	for k, c := range counts {
		if c != 60 {
			t.Errorf("template %d drawn %d times in 360, want 60", k, c)
		}
	}
}

func TestOpenLoopSendsEveryDueOp(t *testing.T) {
	sched := []time.Duration{0, time.Millisecond, time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	var mu sync.Mutex
	busy, most := 0, 0
	ops := openLoop(context.Background(), 2, time.Now(), sched, func(i int, due time.Time) opResult {
		mu.Lock()
		busy++
		most = max(most, busy)
		mu.Unlock()
		time.Sleep(2 * time.Millisecond)
		mu.Lock()
		busy--
		mu.Unlock()
		return opResult{req: int64(i), due: due}
	})
	if len(ops) != len(sched) {
		t.Fatalf("%d ops, want %d", len(ops), len(sched))
	}
	for i, o := range ops {
		if o.req != int64(i) {
			t.Errorf("op %d holds op %d", i, o.req)
		}
	}
	if most > 2 {
		t.Errorf("%d ops in flight on 2 connections", most)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if ops := openLoop(ctx, 2, time.Now(), []time.Duration{time.Hour}, func(int, time.Time) opResult { return opResult{} }); len(ops) != 0 {
		t.Errorf("%d ops sent after cancel, want 0", len(ops))
	}
}
