// Command perfbench is the repository's benchmark: for one named
// workload and seed it sets up real kokod nodes (server.Service behind
// net/http on loopback), drives them with HTTP load from this process,
// checks every response against an oracle, and prints every metric by
// name with its unit. The last line of standard output is the result as
// one JSON object. See README.md for the workloads and metrics.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload extract-resident --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	workload := flag.String("workload", "", "extract-resident, scaleout-paged or ingest-mixed")
	seed := flag.Int64("seed", 1, "seed for template draws, open-loop schedules and the writer's article order (the corpora are fixed)")
	seconds := flag.Int("seconds", 20, "length of the timed window")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	buildDir := flag.String("build-dir", ".bench_build", "directory for scratch stores and span files")
	flag.Parse()
	switch *workload {
	case wResident, wScaleout, wIngest:
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	// The services log routine events (compactions, worker discovery);
	// keep them off stdout.
	log.SetOutput(os.Stderr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	work := filepath.Join(*buildDir, fmt.Sprintf("work-%s-%d-%d", *workload, *seed, os.Getpid()))
	r := &run{cfg: config{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		work:     work,
		conns:    runtime.NumCPU(),
	}}
	if r.cfg.trace {
		r.tr = &tracer{}
	}
	err := r.execute(ctx)
	if rmErr := os.RemoveAll(work); err == nil {
		err = rmErr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	var rp *report
	if r.cfg.trace {
		rp = perLayer(r)
	} else {
		rp = endToEnd(r)
	}
	if rp.attempted == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation completed")
		os.Exit(1)
	}
	rp.print(header(r))
}

func header(r *run) []string {
	h := []string{
		fmt.Sprintf("workload %s  seed %d  window %s  traced %t", r.cfg.workload, r.cfg.seed, r.cfg.window, r.cfg.trace),
		fmt.Sprintf("GOMAXPROCS %d  nproc %d  client connections %d  source %s",
			runtime.GOMAXPROCS(0), runtime.NumCPU(), r.cfg.conns, sourceDigest(".")),
	}
	var setups []string
	for _, s := range r.setups {
		setups = append(setups, fmt.Sprintf("%s (generate %s, index %s, save %s, open %s, warm %s)",
			secs(s.total()), secs(s.generate), secs(s.index), secs(s.save), secs(s.open), secs(s.warm)))
	}
	h = append(h, "set-ups: "+strings.Join(setups, "; "))
	switch r.cfg.workload {
	case wResident:
		h = append(h, "load: closed loop, buffered POST /v1/query, no_cache, uniform over the templates")
	case wScaleout:
		h = append(h, fmt.Sprintf("load: open loop, %d queries/s on %d connections, NDJSON streams, no_cache, uniform over the templates", scaleoutRate, r.cfg.conns),
			fmt.Sprintf("block cache: working set %.2f MiB (one unbounded pass), budget %.2f MiB (a quarter); the cache is process-wide, so both workers share it",
				float64(r.dep.workingSet)/(1<<20), float64(r.dep.budget)/(1<<20)))
	case wIngest:
		h = append(h, fmt.Sprintf("load: open loop, writer %d upserts/s and reader %d queries/s, one connection each, one op at a seeded point of each slot", writerRate, readerRate))
	}
	h = append(h, "cpu_ms_per_op counts the whole process: nodes, load generator and oracle checks")
	return h
}

// sourceDigest identifies the code under test: a hash of every Go source
// and go.mod under root, skipping dot-directories such as the build
// directory. The checkout is not a git repository, so there is no commit
// to read.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if de.IsDir() && path != root && strings.HasPrefix(de.Name(), ".") {
			return filepath.SkipDir
		}
		if de.IsDir() || !(strings.HasSuffix(path, ".go") || de.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil)[:8])
}
