package main

import (
	"context"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/koko/index/blockstore"
	"repro/internal/server"
	"repro/koko"
)

// scaleoutShards is how many doc-range shards the two large corpora get
// in scaleout-paged; the 84-article cafes corpus stays unsharded.
const scaleoutShards = 4

// setupTimes splits one set-up into its steps.
type setupTimes struct {
	generate, index, save, open, warm time.Duration
}

func (s setupTimes) total() time.Duration {
	return s.generate + s.index + s.save + s.open + s.warm
}

// deployment is the set of nodes one workload's clients talk to.
type deployment struct {
	front   *node   // the node clients send queries to
	workers []*node // scaleout-paged only
	times   setupTimes
	// storeBytes is the on-disk size of the served stores.
	storeBytes int64
	format     string
	// openMs is the mean time of one LoadFile of a block store on a worker.
	openMs float64
	// workingSet is the decoded posting bytes one unbounded pass over every
	// template touched on the workers; budget the block-cache budget
	// derived from it.
	workingSet, budget int64
	dataDir            string
}

func (d *deployment) nodes() []*node {
	var ns []*node
	if d.front != nil {
		ns = append(ns, d.front)
	}
	return append(ns, d.workers...)
}

// stop stops the front node first, then the workers it fans out to.
func (d *deployment) stop() {
	for _, n := range d.nodes() {
		n.stop()
	}
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, de fs.DirEntry, err error) error {
		if err != nil || !de.Type().IsRegular() {
			return err
		}
		info, err := de.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// saver persists one corpus; it is how the workloads differ on disk.
type saver interface {
	SaveAs(path string, format koko.StoreFormat) error
}

// buildAndSave indexes every corpus with build, saves it under dir in the
// given format, and fills in the index and save times and store size.
func buildAndSave(g *corpora, dir string, format koko.StoreFormat, build func(name string) saver, d *deployment) (map[string]string, error) {
	t := time.Now()
	built := map[string]saver{}
	for _, name := range corpusNames {
		built[name] = build(name)
	}
	d.times.index = time.Since(t)
	storeDir := filepath.Join(dir, "stores")
	if err := os.MkdirAll(storeDir, 0o755); err != nil {
		return nil, err
	}
	t = time.Now()
	paths := map[string]string{}
	for _, name := range corpusNames {
		p := filepath.Join(storeDir, name+".koko")
		if err := built[name].SaveAs(p, format); err != nil {
			return nil, fmt.Errorf("save %s: %w", name, err)
		}
		paths[name] = p
	}
	d.times.save = time.Since(t)
	var err error
	d.storeBytes, err = dirBytes(storeDir)
	d.format = format.String()
	return paths, err
}

func heapEngine(g *corpora) func(string) saver {
	return func(name string) saver {
		return koko.NewEngine(koko.WrapCorpus(g.byName[name]), g.options())
	}
}

// deployRow serves the row stores as `koko index` writes them, unsharded,
// from one node: extract-resident with the default Config, ingest-mixed
// with a data dir (durable, default batch WAL policy and auto-compaction).
func deployRow(g *corpora, dir, dataDir string, tr *tracer) (*deployment, error) {
	d := &deployment{dataDir: dataDir}
	paths, err := buildAndSave(g, dir, koko.FormatRow, heapEngine(g), d)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	svc := server.NewService(server.Config{LoadOptions: g.options(), DataDir: dataDir})
	for _, name := range corpusNames {
		if err := svc.Registry().LoadFile(name, paths[name]); err != nil {
			svc.Close()
			return nil, err
		}
	}
	if d.front, err = startNode(svc, tr); err != nil {
		svc.Close()
		return nil, err
	}
	d.times.open = time.Since(t)
	return d, nil
}

// deployScaleout is scaleout-paged: block stores, wiki and happy in
// doc-range shards, two worker nodes that each load every store, and a
// coordinator routing every shard to both (Replicas 2, default hedging).
func deployScaleout(ctx context.Context, g *corpora, dir string, tr *tracer) (*deployment, error) {
	d := &deployment{}
	paths, err := buildAndSave(g, dir, koko.FormatBlock, func(name string) saver {
		if name == "cafes" {
			return koko.NewEngine(koko.WrapCorpus(g.byName[name]), g.options())
		}
		return koko.NewShardedEngine(koko.WrapCorpus(g.byName[name]), scaleoutShards, g.options())
	}, d)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	var loads time.Duration
	for i := 0; i < 2; i++ {
		// Unbounded until warm-up has measured the working set.
		svc := server.NewService(server.Config{LoadOptions: g.options(), StoreCacheBytes: -1})
		for _, name := range corpusNames {
			tl := time.Now()
			err := svc.Registry().LoadFile(name, paths[name])
			loads += time.Since(tl)
			if err != nil {
				svc.Close()
				d.stop()
				return nil, err
			}
		}
		w, err := startNode(svc, tr)
		if err != nil {
			svc.Close()
			d.stop()
			return nil, err
		}
		d.workers = append(d.workers, w)
	}
	d.openMs = float64(loads.Nanoseconds()) / 1e6 / float64(2*len(corpusNames))
	coord := server.NewService(server.Config{LoadOptions: g.options()})
	if d.front, err = startNode(coord, tr); err != nil {
		coord.Close()
		d.stop()
		return nil, err
	}
	var urls []string
	for _, w := range d.workers {
		urls = append(urls, w.url)
	}
	if _, err := coord.ConnectWorkers(ctx, server.RemoteConfig{Workers: urls, Replicas: 2}); err != nil {
		d.stop()
		return nil, fmt.Errorf("connect workers: %w", err)
	}
	d.times.open = time.Since(t)
	return d, nil
}

// measureWorkingSet runs every template once on every worker with the
// block cache unbounded and returns the decoded bytes that pass made
// resident. Blocks left from an earlier set-up in this process are evicted
// first, so each set-up measures from an empty cache.
func measureWorkingSet(ctx context.Context, c *client, d *deployment, tpls []template) int64 {
	blockstore.SetDefaultBudget(1)
	blockstore.SetDefaultBudget(-1)
	before := blockstore.DefaultStats().UsedBytes
	for _, w := range d.workers {
		for _, t := range tpls {
			c.query(ctx, w.url, t, true, true, time.Now())
		}
	}
	return blockstore.DefaultStats().UsedBytes - before
}

// node is one server.Service served by net/http on a loopback port.
type node struct {
	svc  *server.Service
	srv  *http.Server
	url  string
	done chan struct{}
}

// startNode serves svc on 127.0.0.1. With a non-nil tracer the handler is
// wrapped in the span middleware; untraced runs serve Handler() bare.
func startNode(svc *server.Service, tr *tracer) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	h := svc.Handler()
	if tr != nil {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			traced(inner, tr.rec()).ServeHTTP(w, r)
		})
	}
	n := &node{svc: svc, srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(n.done)
		_ = n.srv.Serve(ln) // returns http.ErrServerClosed after stop
	}()
	return n, nil
}

// stop shuts the listener, waits for in-flight requests and the serve
// goroutine, then closes the service.
func (n *node) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := n.srv.Shutdown(ctx); err != nil {
		n.srv.Close()
	}
	<-n.done
	n.svc.Close()
}
