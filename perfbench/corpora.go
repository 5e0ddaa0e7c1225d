package main

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/koko/index"
	"repro/koko"
)

// The corpora are one fixed dataset shared by every workload and seed:
// generator seed 1 (the default of the repository's generators) at these
// sizes. A run's --seed draws the request streams instead. Whether the
// block store mis-reads an entity block depends on the exact corpus bytes,
// so corpora drawn from the run seed would make that known defect come and
// go from seed to seed.
const (
	corpusSeed   = 1
	wikiArticles = 2000
	happySents   = 2000
)

// template is one query the clients send, bound to the corpus it reads.
type template struct {
	name, corpus, query string
}

// templates are the shared query templates: the three §6.3 Wikipedia
// queries, the two hot-path HappyDB queries and the Figure 9 cafe query
// with descriptors. Chocolate is DPLI-bound, DateOfBirth extract- and
// satisfying-bound, and the cafe query is dominated by descriptor
// similarity.
func templates() []template {
	sq := experiments.ScaleQueries()
	var out []template
	for _, name := range experiments.ScaleQueryOrder {
		out = append(out, template{name, "wiki", sq[name].String()})
	}
	out = append(out,
		template{"HotPathExtract", "happy", experiments.HotPathExtractQuery},
		template{"HotPathSatisfying", "happy", experiments.HotPathSatisfyingQuery},
		template{"Cafe", "cafes", experiments.CafeQuery(0.5, true).String()},
	)
	return out
}

// corpora is the generated input: the parsed corpora and the raw
// text the wiki writer upserts.
type corpora struct {
	byName map[string]*index.Corpus
	// dicts backs the cafe query's dict("Location") condition.
	dicts map[string][]string
	// wikiTexts[d] is wiki document d's text, rebuilt from its parsed
	// sentences (the generator keeps no raw text); wikiNames[d] its name.
	wikiTexts, wikiNames []string
	// textBytes is the raw document text size per corpus.
	textBytes map[string]int64
}

// corpusNames is the registration order on every node.
var corpusNames = []string{"wiki", "happy", "cafes"}

func generate() *corpora {
	seed := int64(corpusSeed)
	wiki, _ := corpus.GenWikipedia(wikiArticles, seed)
	cafes := corpus.GenCafes(corpus.BaristaMagConfig(seed))
	g := &corpora{
		byName: map[string]*index.Corpus{
			"wiki":  wiki,
			"happy": corpus.GenHappyDB(happySents, seed),
			"cafes": cafes.Corpus,
		},
		dicts:     map[string][]string{},
		textBytes: map[string]int64{},
	}
	for name, vals := range cafes.Dicts {
		for v := range vals {
			g.dicts[name] = append(g.dicts[name], v)
		}
		sort.Strings(g.dicts[name])
	}
	for name, c := range g.byName {
		for d := range c.Docs {
			t := docText(c, d)
			g.textBytes[name] += int64(len(t))
			if name == "wiki" {
				g.wikiTexts = append(g.wikiTexts, t)
				g.wikiNames = append(g.wikiNames, c.Docs[d].Name)
			}
		}
	}
	return g
}

func docText(c *index.Corpus, d int) string {
	lo, hi := c.DocSentences(d)
	parts := make([]string, 0, hi-lo)
	for sid := lo; sid < hi; sid++ {
		parts = append(parts, c.Sentence(sid).String())
	}
	return strings.Join(parts, " ")
}

func (g *corpora) totalTextBytes() int64 {
	var n int64
	for _, b := range g.textBytes {
		n += b
	}
	return n
}

func (g *corpora) options() *koko.Options { return &koko.Options{Dicts: g.dicts} }

// reference is the oracle's answer to one template.
type reference struct {
	ordered, multiset string
}

// buildOracle evaluates every template on unsharded heap engines over the
// generated corpora: the reference every served response is checked
// against.
func buildOracle(ctx context.Context, g *corpora, tpls []template) (map[string]reference, error) {
	engines := map[string]*koko.Engine{}
	for name, c := range g.byName {
		engines[name] = koko.NewEngine(koko.WrapCorpus(c), g.options())
	}
	refs := map[string]reference{}
	for _, t := range tpls {
		p, err := koko.ParseQuery(t.query)
		if err != nil {
			return nil, fmt.Errorf("oracle: parse %s: %w", t.name, err)
		}
		seq, err := engines[t.corpus].Run(ctx, p, nil)
		if err != nil {
			return nil, fmt.Errorf("oracle: run %s: %w", t.name, err)
		}
		res, err := seq.Collect()
		if err != nil {
			return nil, fmt.Errorf("oracle: run %s: %w", t.name, err)
		}
		keys := make([]tupleKey, len(res.Tuples))
		for i, tu := range res.Tuples {
			keys[i] = tupleKey{tu.Document, tu.SentenceID, tu.Values}
		}
		refs[t.name] = reference{orderedDigest(keys), multisetDigest(keys)}
	}
	return refs, nil
}
