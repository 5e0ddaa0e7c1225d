package main

import (
	"sort"
	"time"

	"repro/internal/nlp"
	"repro/koko"
)

// parseReps / annotateDocs size the direct timed calls of a traced run.
const (
	parseReps    = 200
	annotateDocs = 200
)

// timeParses times koko.ParseQuery on every template and returns the mean
// microseconds per parse.
func timeParses(rec *recorder, tpls []template) float64 {
	var total time.Duration
	n := 0
	for i := 0; i < parseReps; i++ {
		for _, t := range tpls {
			start := time.Now()
			_, err := koko.ParseQuery(t.query)
			end := time.Now()
			if err != nil {
				continue
			}
			rec.add(0, 0, 0, "lang.parse", start, end)
			total += end.Sub(start)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(total.Nanoseconds()) / 1e3 / float64(n)
}

// timeAnnotate times the NLP pipeline on the texts the ingest writer
// upserts and returns the mean milliseconds per document.
func timeAnnotate(rec *recorder, g *corpora) float64 {
	p := nlp.NewPipeline()
	var total time.Duration
	n := min(annotateDocs, len(g.wikiTexts))
	for d := 0; d < n; d++ {
		start := time.Now()
		p.Annotate(d, g.wikiNames[d], g.wikiTexts[d], 0)
		end := time.Now()
		rec.add(0, 0, 0, "nlp.annotate", start, end)
		total += end.Sub(start)
	}
	if n == 0 {
		return 0
	}
	return float64(total.Nanoseconds()) / 1e6 / float64(n)
}

// phaseNames are the engine phases a response reports, in Table 2 order.
var phaseNames = []string{"normalize", "dpli", "plan", "load_article", "gsp", "extract", "satisfying"}

// perTemplatePhases are the phases reported per template.
var perTemplatePhases = []string{"normalize", "dpli", "plan", "gsp", "extract", "satisfying"}

func phaseValues(o *opResult) []float64 {
	p := o.phases
	return []float64{p.Normalize, p.DPLI, p.Plan, p.LoadArticle, p.GSP, p.Extract, p.Satisfying}
}

// selfTimes splits one successful query's client time into layer self
// times that add up to it:
//
//	server.transport   client time − handler span
//	server.encode      handler span − service_ms (body decode and encode)
//	server.queue       service_ms − phases.total_ms (parse, cache, slot wait)
//	engine.<phase>     the response phases, scaled to fit total_ms when
//	                   they are summed over parallel shards
//	engine.unphased    total_ms not covered by a phase (the per-document
//	                   loop; on a coordinator, the wire and the merge)
//
// Every layer but engine.unphased lies between two measured boundaries.
// cut is what the clamps removed where an inner figure exceeded the one
// around it (a handler span longer than the client's, say): time that no
// boundary accounts for. A cached response did no engine work; its
// phases describe the original evaluation and are not counted.
func selfTimes(o *opResult, handlerMs float64) (self map[string]float64, cut float64) {
	client := float64(o.end.Sub(o.sent).Nanoseconds()) / 1e6
	handler := min(handlerMs, client)
	service := min(o.serviceMs, handler)
	cut = (handlerMs - handler) + (o.serviceMs - service)
	engine := 0.0
	pv := make([]float64, len(phaseNames))
	if !o.cached {
		engine = min(o.phases.Total, service)
		cut += o.phases.Total - engine
		pv = phaseValues(o)
		sum := 0.0
		for _, v := range pv {
			sum += v
		}
		if sum > engine && sum > 0 {
			for i := range pv {
				pv[i] *= engine / sum
			}
		}
	}
	self = map[string]float64{
		"server.transport": client - handler,
		"server.encode":    handler - service,
		"server.queue":     service - engine,
	}
	other := engine
	for i, name := range phaseNames {
		self["engine."+name] = pv[i]
		other -= pv[i]
	}
	self["engine.unphased"] = max(other, 0)
	return self, cut
}

// selfTimeLayers lists selfTimes' keys in report order.
func selfTimeLayers() []string {
	out := []string{"server.transport", "server.encode", "server.queue"}
	for _, p := range phaseNames {
		out = append(out, "engine."+p)
	}
	return append(out, "engine.unphased")
}

// attribution is the traced window's per-layer self time.
type attribution struct {
	// mean self time per successful query, per layer.
	mean map[string]float64
	// unattributed is the share of client time that no measured boundary
	// accounts for (engine.unphased plus the clamps' cut), over the
	// queries in the middle fifth by client time: the queries around the
	// median.
	unattributed float64
	n            int
}

// attribute joins each successful query to its handler span by request ID
// and computes layer self times.
func attribute(ops []opResult, spans []Span) attribution {
	handler := map[int64]float64{}
	for _, s := range spans {
		if s.Name == "server.handler" && s.Req != 0 {
			handler[s.Req] = s.ms()
		}
	}
	type row struct {
		client, missing float64
		self            map[string]float64
	}
	var rows []row
	for i := range ops {
		o := &ops[i]
		h, ok := handler[o.req]
		if o.kind != "query" || o.failed || !ok {
			continue
		}
		self, cut := selfTimes(o, h)
		rows = append(rows, row{float64(o.end.Sub(o.sent).Nanoseconds()) / 1e6, self["engine.unphased"] + cut, self})
	}
	a := attribution{mean: map[string]float64{}, n: len(rows)}
	if len(rows) == 0 {
		return a
	}
	for _, r := range rows {
		for k, v := range r.self {
			a.mean[k] += v / float64(len(rows))
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].client < rows[j].client })
	lo, hi := len(rows)*2/5, len(rows)*3/5
	if hi <= lo {
		lo, hi = 0, len(rows)
	}
	var client, missing float64
	for _, r := range rows[lo:hi] {
		client += r.client
		missing += r.missing
	}
	a.unattributed = ratio(missing, client)
	return a
}
