package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"regexp"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// opResult is one client operation as the benchmark saw it.
type opResult struct {
	kind string // "query" or "ingest"
	tpl  string
	req  int64
	// due is when the op was scheduled (closed loop: when it was sent);
	// sent when it got a connection; first when the first result byte
	// arrived; end when the last byte did.
	due, sent, first, end time.Time
	failed, wrong         bool
	errText               string
	// traced marks an op sent while a recorder was active.
	traced bool
	// Server-reported figures of a successful query.
	serviceMs  float64
	phases     server.PhaseMillis
	candidates int
	tuples     int
	cached     bool
}

func (o *opResult) latencyMs() float64 { return float64(o.end.Sub(o.due).Nanoseconds()) / 1e6 }

// ttftMs is due → first result byte (the end, when the op failed before
// any result arrived).
func (o *opResult) ttftMs() float64 {
	at := o.first
	if at.IsZero() {
		at = o.end
	}
	return float64(at.Sub(o.due).Nanoseconds()) / 1e6
}

func (o *opResult) fail(msg string) {
	o.failed = true
	if o.errText == "" {
		o.errText = normalizeError(msg)
	}
}

// Node addresses and scratch paths differ from run to run; failures are
// grouped by their text with those replaced.
var (
	reNode  = regexp.MustCompile(`http://127\.0\.0\.1:\d+`)
	reStore = regexp.MustCompile(`store \S*/stores/`)
)

func normalizeError(msg string) string {
	msg = reNode.ReplaceAllString(msg, "<node>")
	return reStore.ReplaceAllString(msg, "store <dir>/")
}

// wireTuple, wireResponse and wireEvent decode only what the oracle and
// the metrics read from a reply (skipping scores and the plan report keeps
// the load generator's share of the CPU down).
type wireTuple struct {
	SentenceID int      `json:"sentence_id"`
	Document   int      `json:"document"`
	Values     []string `json:"values"`
}

func (t *wireTuple) key() tupleKey { return tupleKey{t.Document, t.SentenceID, t.Values} }

// wireSummary is what a buffered reply and a stream's done line share.
type wireSummary struct {
	Candidates    int                `json:"candidates"`
	Cached        bool               `json:"cached"`
	Phases        server.PhaseMillis `json:"phases"`
	ServiceMillis float64            `json:"service_ms"`
}

// record copies the server-reported figures of a reply with n tuples.
func (s *wireSummary) record(o *opResult, n int) {
	o.serviceMs, o.phases, o.candidates, o.cached, o.tuples = s.ServiceMillis, s.Phases, s.Candidates, s.Cached, n
}

type wireResponse struct {
	Tuples []wireTuple `json:"tuples"`
	wireSummary
}

type wireEvent struct {
	Tuple *wireTuple   `json:"tuple"`
	Done  *wireSummary `json:"done"`
	Error string       `json:"error"`
}

// checker decides whether a query's tuples match the oracle.
type checker func(tpl string, keys []tupleKey) bool

// client is the benchmark's load generator side of HTTP.
type client struct {
	hc    *http.Client
	tr    *tracer
	check checker
	reqs  atomic.Int64
}

// newClient opens at most conns connections to any one node.
func newClient(conns int, tr *tracer, check checker) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
		tr:    tr,
		check: check,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends one JSON request, tagging it with request and span IDs when
// a recorder is active.
func (c *client) post(ctx context.Context, o *opResult, url string, body any) (*http.Response, int64, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return nil, 0, err
	}
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		// An open-loop op may wait for a free connection: it is sent
		// when it gets one.
		GotConn: func(httptrace.GotConnInfo) { o.sent = time.Now() },
		GotFirstResponseByte: func() {
			if o.first.IsZero() {
				o.first = time.Now()
			}
		},
	})
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		return nil, 0, err
	}
	hr.Header.Set("Content-Type", "application/json")
	var span int64
	o.req = c.reqs.Add(1)
	if rec := c.tr.rec(); rec != nil {
		o.traced = true
		span = rec.newID()
		hr.Header.Set(hdrReq, strconv.FormatInt(o.req, 10))
		hr.Header.Set(hdrSpan, strconv.FormatInt(span, 10))
	}
	resp, err := c.hc.Do(hr)
	return resp, span, err
}

// finish stamps the end time and records the client span.
func (c *client) finish(o *opResult, span int64, name string) {
	o.end = time.Now()
	if span != 0 {
		c.tr.rec().add(span, 0, o.req, name, o.sent, o.end)
	}
}

// errorText extracts the server's error message from a non-200 reply.
func errorText(status int, body []byte) string {
	var e struct {
		Error server.ErrorBody `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error.Code != "" {
		return fmt.Sprintf("%d %s: %s", status, e.Error.Code, e.Error.Message)
	}
	return fmt.Sprintf("%d: %.200s", status, body)
}

// query sends one template as a buffered or NDJSON-streamed query. With a
// streamed reply the first result byte is the first tuple line, or the
// done line of an empty result.
func (c *client) query(ctx context.Context, base string, t template, noCache, stream bool, due time.Time) opResult {
	o := opResult{kind: "query", tpl: t.name, due: due}
	url := base + "/v1/query"
	if stream {
		url += "?stream=1"
	}
	resp, span, err := c.post(ctx, &o, url, server.QueryRequest{Corpus: t.corpus, Query: t.query, NoCache: noCache})
	if err != nil {
		c.finish(&o, span, "client.query")
		o.fail(err.Error())
		return o
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		c.finish(&o, span, "client.query")
		o.fail(errorText(resp.StatusCode, body))
		return o
	}
	var keys []tupleKey
	if stream {
		o.first = time.Time{} // headers are not a result
		keys = c.readStream(resp.Body, &o)
	} else {
		var qr wireResponse
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			o.fail("decode: " + err.Error())
		} else {
			keys = make([]tupleKey, len(qr.Tuples))
			for i := range qr.Tuples {
				keys[i] = qr.Tuples[i].key()
			}
			qr.record(&o, len(qr.Tuples))
		}
	}
	c.finish(&o, span, "client.query")
	if !o.failed && c.check != nil && !c.check(t.name, keys) {
		o.wrong = true
		o.fail("wrong result")
	}
	return o
}

// readStream drains an NDJSON reply: tuples until the done line. An error
// line or a stream that ends before done fails the op.
func (c *client) readStream(body io.Reader, o *opResult) []tupleKey {
	var keys []tupleKey
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var ev wireEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			o.fail("decode stream line: " + err.Error())
			return keys
		}
		switch {
		case ev.Tuple != nil:
			if o.first.IsZero() {
				o.first = time.Now()
			}
			keys = append(keys, ev.Tuple.key())
		case ev.Done != nil:
			if o.first.IsZero() {
				o.first = time.Now()
			}
			ev.Done.record(o, len(keys))
			return keys
		case ev.Error != "":
			o.fail("stream error: " + ev.Error)
			return keys
		}
	}
	if err := sc.Err(); err != nil {
		o.fail("truncated stream: " + err.Error())
	} else {
		o.fail("truncated stream: no done line")
	}
	return keys
}

// ingest upserts one document and waits for the 200 ack.
func (c *client) ingest(ctx context.Context, base, corpus, name, text string, due time.Time) opResult {
	o := opResult{kind: "ingest", tpl: "upsert:" + corpus, due: due}
	resp, span, err := c.post(ctx, &o, base+"/v1/corpora/"+corpus+"/documents", server.IngestRequest{Name: name, Text: text})
	if err != nil {
		c.finish(&o, span, "client.ingest")
		o.fail(err.Error())
		return o
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	c.finish(&o, span, "client.ingest")
	switch {
	case err != nil:
		o.fail("read ack: " + err.Error())
	case resp.StatusCode != http.StatusOK:
		o.fail(errorText(resp.StatusCode, body))
	}
	return o
}

// metrics reads a node's /v1/metrics.
func (c *client) metrics(ctx context.Context, base string) (server.MetricsSnapshot, error) {
	var m server.MetricsSnapshot
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/metrics", nil)
	if err != nil {
		return m, err
	}
	resp, err := c.hc.Do(hr)
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, errors.New("metrics: " + resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&m)
	return m, err
}
