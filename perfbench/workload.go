package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/koko/index/blockstore"
	"repro/internal/server"
)

// Workload names.
const (
	wResident = "extract-resident"
	wScaleout = "scaleout-paged"
	wIngest   = "ingest-mixed"
)

// Rates of ingest-mixed's two open-loop streams, in ops/s: the rates the
// workload is specified with (about 100 upserts/s, and 400 reads in 20 s).
const (
	writerRate = 100
	readerRate = 20
)

// scaleoutRate is scaleout-paged's open-loop query rate, in queries/s:
// about a fifth of what the deployment serves on two cores (some 35 ms of
// CPU per query). At 30/s, in slow spells of the machine, queues built up
// on the two connections and a run's latency_iqm_ms reached 2.2 times the
// median of ten. It is a multiple of the template count: a window of whole
// seconds then holds every template the same number of times, so the
// number of ops, and of ops the known Cafe defect fails, is the same on
// every run.
const scaleoutRate = 12

// readPopularity ranks the templates for ingest-mixed's Zipf draws, most
// popular first, within the written corpus and within the static ones;
// readSkew is the Zipf exponent. Neither comes from a measured request
// log: both are unverified assumptions of the read mix.
var readPopularity = []string{"Title", "Chocolate", "DateOfBirth", "HotPathExtract", "HotPathSatisfying", "Cafe"}

const readSkew = 1.1

// traceSlice is how long tracing stays on, then off, in a traced run.
const traceSlice = 250 * time.Millisecond

// setupReps is how many times a run sets the workload up; setup_s is the
// median.
const setupReps = 3

type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	work     string // scratch directory inside the checkout
	conns    int    // client connections: nproc
}

// run is one workload run's state and outcome.
type run struct {
	cfg  config
	tpls []template
	refs map[string]reference
	g    *corpora
	dep  *deployment
	tr   *tracer
	c    *client

	setups   []setupTimes
	heapLive float64 // MiB

	// Timed-window outcome (the traced half in a traced run).
	ops      []opResult
	elapsed  time.Duration
	cpu      time.Duration
	before   []server.MetricsSnapshot // per node, at window start
	after    []server.MetricsSnapshot
	deltaMax int64
	tombMax  int64
	spans    []Span
	parseUs  float64
	nlpMs    float64
}

// written reports whether template t reads the corpus the workload writes:
// those results are checked by the multiset digest.
func (r *run) written(t string) bool {
	if r.cfg.workload != wIngest {
		return false
	}
	for _, tp := range r.tpls {
		if tp.name == t {
			return tp.corpus == "wiki"
		}
	}
	return false
}

func (r *run) check(t string, keys []tupleKey) bool {
	ref, ok := r.refs[t]
	if !ok {
		return false
	}
	if r.written(t) {
		return multisetDigest(keys) == ref.multiset
	}
	return orderedDigest(keys) == ref.ordered
}

// stream reports whether the workload's clients read NDJSON streams.
func (r *run) stream() bool { return r.cfg.workload == wScaleout }

// noCache reports whether queries bypass the result cache.
func (r *run) noCache() bool { return r.cfg.workload != wIngest }

func (r *run) deploy(ctx context.Context, dir string) (*deployment, error) {
	switch r.cfg.workload {
	case wResident:
		return deployRow(r.g, dir, "", r.tr)
	case wScaleout:
		return deployScaleout(ctx, r.g, dir, r.tr)
	case wIngest:
		return deployRow(r.g, dir, filepath.Join(dir, "data"), r.tr)
	}
	return nil, fmt.Errorf("unknown workload %q", r.cfg.workload)
}

// setup generates, indexes, saves, opens and warms the workload setupReps
// times, keeping the last deployment for the timed window. The oracle is
// computed once, outside the timed set-up.
func (r *run) setup(ctx context.Context) error {
	r.tpls = templates()
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		r.g = generate()
		gen := time.Since(t)
		if r.refs == nil {
			refs, err := buildOracle(ctx, r.g, r.tpls)
			if err != nil {
				return err
			}
			r.refs = refs
		}
		dir := filepath.Join(r.cfg.work, fmt.Sprintf("setup%d", i))
		dep, err := r.deploy(ctx, dir)
		if err != nil {
			return fmt.Errorf("setup %s: %w", r.cfg.workload, err)
		}
		dep.times.generate = gen
		r.dep = dep
		t = time.Now()
		r.warm(ctx)
		dep.times.warm = time.Since(t)
		r.setups = append(r.setups, dep.times)
		if i < setupReps-1 {
			dep.stop()
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
	}
	// The timed window needs only the writer's texts and the text sizes;
	// dropping the parsed corpora keeps the benchmark's own copy out of
	// heap_live_mb.
	r.g.byName = nil
	if r.cfg.workload != wIngest {
		r.heapLive = liveHeapMiB()
	}
	return nil
}

// warm sends every template twice through the front node the way the
// timed window will. On scaleout-paged it first measures the decoded
// posting working set with the block cache unbounded, then sets the budget
// to a quarter of it.
func (r *run) warm(ctx context.Context) {
	if r.cfg.workload == wScaleout {
		r.dep.workingSet = measureWorkingSet(ctx, r.c, r.dep, r.tpls)
		r.dep.budget = r.dep.workingSet / 4
		blockstore.SetDefaultBudget(r.dep.budget)
	}
	for round := 0; round < 2; round++ {
		for _, t := range r.tpls {
			r.c.query(ctx, r.dep.front.url, t, r.noCache(), r.stream(), time.Now())
		}
	}
}

// liveHeapMiB forces a GC and reads the live heap.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// window runs the workload's load for dur and returns every op, the wall
// time from start to the last completion, and the CPU the process spent.
func (r *run) window(ctx context.Context, dur time.Duration, seed int64) ([]opResult, time.Duration, time.Duration) {
	cpu0 := cpuTime()
	start := time.Now()
	var ops []opResult
	switch r.cfg.workload {
	case wIngest:
		ops = r.mixed(ctx, start, dur, seed)
	case wScaleout:
		sched := schedule(seed, scaleoutRate, dur)
		order := rounds(seed+1, len(r.tpls), len(sched))
		ops = openLoop(ctx, r.cfg.conns, start, sched, func(i int, due time.Time) opResult {
			return r.c.query(ctx, r.dep.front.url, r.tpls[order[i]], r.noCache(), r.stream(), due)
		})
	default:
		ops = closedLoop(ctx, r.cfg.conns, start, dur, seed, r.tpls, func(t template) opResult {
			return r.c.query(ctx, r.dep.front.url, t, r.noCache(), r.stream(), time.Now())
		})
	}
	var last time.Time
	for i := range ops {
		if ops[i].end.After(last) {
			last = ops[i].end
		}
	}
	return ops, last.Sub(start), cpuTime() - cpu0
}

// closedLoop runs conns clients that each send their next query when the
// previous one completes, until dur has passed or ctx is done. Each client draws
// templates uniformly in seeded shuffled rounds, so every template gets
// the same share of requests.
func closedLoop(ctx context.Context, conns int, start time.Time, dur time.Duration, seed int64, tpls []template, do func(template) opResult) []opResult {
	deadline := start.Add(dur)
	per := make([][]opResult, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1009 + int64(w)))
			var order []int
			for ctx.Err() == nil && time.Now().Before(deadline) {
				if len(order) == 0 {
					order = rng.Perm(len(tpls))
				}
				per[w] = append(per[w], do(tpls[order[0]]))
				order = order[1:]
			}
		}(w)
	}
	wg.Wait()
	var out []opResult
	for _, ops := range per {
		out = append(out, ops...)
	}
	return out
}

// rounds returns n template indexes drawn in seeded shuffled rounds of
// all k templates: a multiple of k draws holds every template equally.
func rounds(seed int64, k, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, 0, n+k)
	for len(out) < n {
		out = append(out, rng.Perm(k)...)
	}
	return out[:n]
}

// openLoop sends op i at start+sched[i] on the first of conns
// connections that is free, or as soon as one frees up when all are busy;
// each op is timed from when it was due, so a stall counts against every
// op it delays. Ops not yet due when ctx is done are not sent.
func openLoop(ctx context.Context, conns int, start time.Time, sched []time.Duration, do func(i int, due time.Time) opResult) []opResult {
	out := make([]opResult, len(sched))
	queue := make(chan int, len(sched))
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				out[i] = do(i, start.Add(sched[i]))
			}
		}()
	}
	sent := len(sched)
	for i, off := range sched {
		if d := time.Until(start.Add(off)); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			sent = i
			break
		}
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out[:sent]
}

// mixed is ingest-mixed's window: a writer upserting wiki articles under
// their own names with their own text, and a reader sending Zipf-skewed
// template queries, half of them to the corpora nobody writes. Each stream
// has one connection.
func (r *run) mixed(ctx context.Context, start time.Time, dur time.Duration, seed int64) []opResult {
	var wiki, static []template
	for _, name := range readPopularity {
		for _, t := range r.tpls {
			switch {
			case t.name != name:
			case t.corpus == "wiki":
				wiki = append(wiki, t)
			default:
				static = append(static, t)
			}
		}
	}
	front := r.dep.front
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			m := front.svc.Metrics()
			r.deltaMax = max(r.deltaMax, int64(m.DeltaDocs))
			r.tombMax = max(r.tombMax, m.TombstonesLive)
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	var writes, reads []opResult
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		order := rand.New(rand.NewSource(seed + 1)).Perm(len(r.g.wikiTexts))
		writes = openLoop(ctx, 1, start, schedule(seed+2, writerRate, dur), func(i int, due time.Time) opResult {
			d := order[i%len(order)]
			return r.c.ingest(ctx, front.url, "wiki", r.g.wikiNames[d], r.g.wikiTexts[d], due)
		})
	}()
	go func() {
		defer wg.Done()
		// side draws 0 (wiki) or 1 (static) in exact halves.
		side := newZipf(seed+3, 2, 0)
		zw, zs := newZipf(seed+4, len(wiki), readSkew), newZipf(seed+5, len(static), readSkew)
		reads = openLoop(ctx, 1, start, schedule(seed+6, readerRate, dur), func(i int, due time.Time) opResult {
			t := wiki[zw.next()]
			if side.next() == 1 {
				t = static[zs.next()]
			}
			return r.c.query(ctx, front.url, t, false, false, due)
		})
	}()
	wg.Wait()
	close(stop)
	sampler.Wait()
	return append(reads, writes...)
}

// metricsAll reads /v1/metrics on every node.
func (r *run) metricsAll(ctx context.Context) ([]server.MetricsSnapshot, error) {
	var out []server.MetricsSnapshot
	for _, n := range r.dep.nodes() {
		m, err := r.c.metrics(ctx, n.url)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// execute runs the workload: set-up, then the timed window, untraced or
// with tracing switched on in alternate slices.
func (r *run) execute(ctx context.Context) error {
	r.c = newClient(r.cfg.conns, r.tr, r.check)
	defer r.c.close()
	if err := r.setup(ctx); err != nil {
		return err
	}
	defer r.dep.stop()
	var err error
	if !r.cfg.trace {
		if r.before, err = r.metricsAll(ctx); err != nil {
			return err
		}
		r.ops, r.elapsed, r.cpu = r.window(ctx, r.cfg.window, r.cfg.seed)
		if r.after, err = r.metricsAll(ctx); err != nil {
			return err
		}
		if r.cfg.workload == wIngest {
			r.heapLive = liveHeapMiB()
		}
		return r.finishStores()
	}
	// Tracing is switched on and off in short slices through one window,
	// so traced and untraced requests see the same conditions and their
	// difference is the tracing overhead.
	rec := newRecorder()
	stopToggle := make(chan struct{})
	var toggler sync.WaitGroup
	toggler.Add(1)
	go func() {
		defer toggler.Done()
		tick := time.NewTicker(traceSlice)
		defer tick.Stop()
		on := true
		for {
			if on {
				r.tr.p.Store(rec)
			} else {
				r.tr.p.Store(nil)
			}
			select {
			case <-stopToggle:
				r.tr.p.Store(nil)
				return
			case <-tick.C:
				on = !on
			}
		}
	}()
	r.before, err = r.metricsAll(ctx)
	if err == nil {
		r.ops, r.elapsed, r.cpu = r.window(ctx, r.cfg.window, r.cfg.seed)
		r.after, err = r.metricsAll(ctx)
	}
	close(stopToggle)
	toggler.Wait()
	if err != nil {
		return err
	}
	r.parseUs = timeParses(rec, r.tpls)
	r.nlpMs = timeAnnotate(rec, r.g)
	r.spans = rec.snapshot()
	path := filepath.Join(filepath.Dir(r.cfg.work), "traces", fmt.Sprintf("%s-seed%d.jsonl", r.cfg.workload, r.cfg.seed))
	if err := rec.write(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans: %d written to %s\n", len(r.spans), path)
	return r.finishStores()
}

// finishStores re-reads the data dir of a durable node at the end of the
// run: ingest-mixed's store size is what the writes left on disk.
func (r *run) finishStores() error {
	if r.dep.dataDir == "" {
		return nil
	}
	n, err := dirBytes(r.dep.dataDir)
	r.dep.storeBytes, r.dep.format = n, "data dir at the end of the run"
	return err
}
