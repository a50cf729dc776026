package main

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"deepdive"
	"deepdive/internal/corpus"
	"deepdive/internal/factor"
	"deepdive/internal/kbc"
)

// heldOut is how many documents of the corpus's tail ingest and serve
// keep back from the loaded base and stream in as updates.
const heldOut = 60

// f1Eps is the largest F1 gap allowed between an incrementally
// maintained KB and a KB built from scratch over the same program and
// data (the paper's Fig. 10a claim).
const f1Eps = 0.05

// inputs is everything a workload feeds the KB, built from the corpus
// before any timer starts.
type inputs struct {
	sys      *corpus.System
	src      string            // base program
	rules    map[string]string // iteration name -> rule source
	fixed    map[string][]deepdive.Tuple
	docs     []map[string][]deepdive.Tuple // per document: Sentence and Mention tuples
	entity   map[string]string             // mention id -> linked entity
	varRels  []string                      // variable relations, in spec order
	relNames map[string]string             // variable relation -> corpus relation
}

// newInputs generates the corpus of spec and splits its base tuples by
// document, so any document can be loaded up front or streamed later.
func newInputs(spec corpus.Spec) (*inputs, error) {
	sys := corpus.Generate(spec)
	in := &inputs{
		sys:      sys,
		src:      kbc.BaseProgram(sys, factor.Ratio),
		rules:    map[string]string{},
		fixed:    map[string][]deepdive.Tuple{},
		docs:     make([]map[string][]deepdive.Tuple, len(sys.Docs)),
		entity:   map[string]string{},
		relNames: map[string]string{},
	}
	for _, it := range kbc.IterationNames {
		in.rules[it] = kbc.IterationRules(sys, it)
	}
	for _, r := range sys.Spec.Relations {
		in.varRels = append(in.varRels, "Rel_"+r.Name)
		in.relNames["Rel_"+r.Name] = r.Name
	}
	for i := range in.docs {
		in.docs[i] = map[string][]deepdive.Tuple{}
	}
	for rel, ts := range kbc.BaseTuples(sys) {
		if rel != "Sentence" && rel != "Mention" {
			in.fixed[rel] = ts
			continue
		}
		for _, t := range ts {
			sid := t[0]
			if rel == "Mention" {
				sid = t[1]
				in.entity[t[0]] = t[3]
			}
			d, err := docOf(sid)
			if err != nil || d >= len(in.docs) {
				return nil, fmt.Errorf("kbbench: sentence id %q names no document", sid)
			}
			in.docs[d][rel] = append(in.docs[d][rel], t)
		}
	}
	return in, nil
}

// docOf decodes the document index of a sentence id "s<doc>_<sentence>".
func docOf(sid string) (int, error) {
	head, _, ok := strings.Cut(strings.TrimPrefix(sid, "s"), "_")
	if !ok {
		return 0, fmt.Errorf("bad sentence id %q", sid)
	}
	return strconv.Atoi(head)
}

// program returns the base program plus the named iterations' rules.
func (in *inputs) program(iterations ...string) string {
	src := in.src
	for _, it := range iterations {
		src += in.rules[it]
	}
	return src
}

// baseDocs is the number of documents loaded before any update.
func (in *inputs) baseDocs() int { return len(in.docs) - min(heldOut, len(in.docs)/2) }

// heldOrder returns the held-out documents in a seeded order.
func (in *inputs) heldOrder(seed int64) []int {
	var out []int
	for d := in.baseDocs(); d < len(in.docs); d++ {
		out = append(out, d)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// tuplesOf merges the fixed relations with the given documents' tuples.
func (in *inputs) tuplesOf(docs []int) map[string][]deepdive.Tuple {
	out := map[string][]deepdive.Tuple{}
	for rel, ts := range in.fixed {
		out[rel] = ts
	}
	for _, d := range docs {
		for rel, ts := range in.docs[d] {
			out[rel] = append(out[rel], ts...)
		}
	}
	return out
}

// docRange returns the document indices [lo, hi).
func docRange(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for d := lo; d < hi; d++ {
		out = append(out, d)
	}
	return out
}

// docUpdate is the insert update of one document.
func (in *inputs) docUpdate(d int) deepdive.Update {
	return deepdive.Update{Inserts: in.docs[d]}
}

// options are the library defaults except the learning, inference and
// materialization budgets of the paper experiments: 8/3 epochs, 15/150
// sweeps and 500 stored samples. Background re-materialization stays off
// (the default), so every run does the same work.
func options(seed int64, extra ...deepdive.Option) []deepdive.Option {
	opts := []deepdive.Option{
		deepdive.WithSeed(seed),
		deepdive.WithLearning(8, 0),
		deepdive.WithInference(15, 150),
		deepdive.WithMaterialization(500, 0),
	}
	for name, f := range kbc.UDFs() {
		opts = append(opts, deepdive.WithUDF(name, f))
	}
	return append(opts, extra...)
}

// build opens a KB over src, loads tuples and runs Init, Learn and
// Infer, recording one span per call under label, each a child of one
// "build" span. A KB built this way is the rerun arm and the
// from-scratch reference of every workload.
func build(ctx context.Context, tr *tracer, label, src string, tuples map[string][]deepdive.Tuple, opts []deepdive.Option) (*deepdive.KB, error) {
	root := tr.begin("build", label, 0, -1)
	defer tr.end(root)
	var kb *deepdive.KB
	steps := []struct {
		name string
		fn   func() error
	}{
		{"OpenKB", func() (err error) {
			kb, err = deepdive.OpenKB(src, opts...)
			return err
		}},
		{"Load", func() error {
			for rel, ts := range tuples {
				if err := kb.Load(rel, ts); err != nil {
					return err
				}
			}
			return nil
		}},
		{"Init", func() error { return kb.Init(ctx) }},
		{"Learn", func() error { _, err := kb.Learn(ctx); return err }},
		{"Infer", func() error { _, err := kb.Infer(ctx); return err }},
	}
	for _, s := range steps {
		i := tr.begin(s.name, label, 0, root)
		err := s.fn()
		tr.end(i)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return kb, nil
}

// materialize runs Materialize under a span.
func materialize(ctx context.Context, tr *tracer, label string, kb *deepdive.KB) error {
	return tr.call("Materialize", label, func() error { _, err := kb.Materialize(ctx); return err })
}
