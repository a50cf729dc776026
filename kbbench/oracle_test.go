package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"deepdive"
	"deepdive/internal/corpus"
)

// The tests run the benchmark's checks at reduced input sizes: a News
// corpus cut to four relations and about a tenth of its sentences. Each
// planted fault must make its check fail, so no check passes vacuously,
// and the unaltered state must pass.

func smallInputs(t *testing.T) *inputs {
	t.Helper()
	spec := corpus.News()
	spec.Relations = spec.Relations[:4]
	spec.NumDocs = 40
	spec.TruePairsPerRel = 6
	spec.FalsePairsPerRel = 12
	in, err := newInputs(spec)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func testBench(t *testing.T, in *inputs, workload string) *bench {
	t.Helper()
	return newBench(workload, 7, time.Second, false, in, t.TempDir())
}

// smallKB materializes base+FE1+S1 over the base documents.
func smallKB(t *testing.T, in *inputs, extra ...deepdive.Option) *deepdive.KB {
	t.Helper()
	ctx := context.Background()
	tr := newTracer()
	kb, err := build(ctx, tr, "test", in.program("FE1", "S1"), in.tuplesOf(docRange(0, in.baseDocs())), options(7, extra...))
	if err != nil {
		t.Fatal(err)
	}
	if err := materialize(ctx, tr, "test", kb); err != nil {
		t.Fatal(err)
	}
	return kb
}

// clone deep-copies a state so a planted fault cannot leak into the
// original.
func clone(st facts) facts {
	out := facts{}
	for rel, fs := range st {
		out[rel] = append([]deepdive.Fact(nil), fs...)
	}
	return out
}

// firstQuery returns the relation and index of the first query fact.
func firstQuery(t *testing.T, st facts) (string, int) {
	t.Helper()
	for _, rel := range sortedRels(st) {
		for i, f := range st[rel] {
			if !f.Evidence {
				return rel, i
			}
		}
	}
	t.Fatal("no query fact")
	return "", 0
}

func TestChecksCatchPlantedFaults(t *testing.T) {
	in := smallInputs(t)
	kb := smallKB(t, in)
	defer kb.Close()
	st := factsOf(kb.Snapshot(), in.varRels)
	rel, i := firstQuery(t, st)

	for name, err := range map[string]error{
		"candidates": candidateSets(st, clone(st)),
		"identical":  identical(st, clone(st)),
		"marginals":  marginalsValid(st),
		"f1":         f1Close(in.f1(st), in.f1(clone(st))),
	} {
		if err != nil {
			t.Errorf("%s fails on an unaltered state: %v", name, err)
		}
	}
	if f := in.f1(st); !(f > 0 && f < 1) {
		t.Errorf("F1 %v outside (0,1)", f)
	}

	dropped := clone(st)
	dropped[rel] = append(dropped[rel][:i:i], dropped[rel][i+1:]...)
	if candidateSets(dropped, st) == nil || candidateSets(st, dropped) == nil {
		t.Error("candidateSets passes with one candidate dropped")
	}
	renamed := clone(st)
	renamed[rel][i].Tuple = append([]string{"m:planted"}, renamed[rel][i].Tuple[1:]...)
	if candidateSets(renamed, st) == nil {
		t.Error("candidateSets passes with one candidate replaced")
	}
	flipped := clone(st)
	flipped[rel][i].Evidence = true
	if candidateSets(flipped, st) == nil {
		t.Error("candidateSets passes with one evidence flag flipped")
	}

	perturbed := clone(st)
	perturbed[rel][i].Probability = math.Nextafter(perturbed[rel][i].Probability, 2)
	if identical(perturbed, st) == nil {
		t.Error("identical passes with one marginal perturbed by one ulp")
	}
	outside := clone(st)
	outside[rel][i].Probability = 1.5
	if marginalsValid(outside) == nil {
		t.Error("marginalsValid passes a marginal of 1.5")
	}
	unknown := clone(st)
	unknown[rel][i].Known = false
	if marginalsValid(unknown) == nil {
		t.Error("marginalsValid passes a query fact with no marginal")
	}
	if f1Close(0.30, 0.30+2*f1Eps) == nil {
		t.Error("f1Close passes a gap of twice its bound")
	}

	// The subscriber's reconstruction is compared through sortedFacts.
	m := map[string]deepdive.Fact{}
	for _, f := range st[rel] {
		m[factKey(f.Tuple)] = f
	}
	if err := sameFacts(rel, sortedFacts(m, st[rel]), st[rel]); err != nil {
		t.Errorf("reconstruction of an unaltered relation differs: %v", err)
	}
	delete(m, factKey(st[rel][i].Tuple))
	if sameFacts(rel, sortedFacts(m, st[rel]), st[rel]) == nil {
		t.Error("reconstruction check passes with one fact missing")
	}
}

// TestRecoveryCheckCatchesLostDocument streams the held-out documents
// into a durable KB, recovers it, and plants one acknowledged document's
// loss in the recovered state.
func TestRecoveryCheckCatchesLostDocument(t *testing.T) {
	in := smallInputs(t)
	b := testBench(t, in, "ingest")
	dir := t.TempDir()
	kb := smallKB(t, in, deepdive.WithDataDir(dir))
	if err := kb.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	acked, _, _ := b.stream(context.Background(), kb, in.heldOrder(7))
	if len(acked) == 0 {
		t.Fatal("no document acknowledged")
	}
	before := factsOf(kb.Snapshot(), in.varRels)
	if err := kb.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := deepdive.OpenKB(in.program("FE1", "S1"), options(7, deepdive.WithDataDir(dir))...)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if !rec.Recovered() {
		t.Fatal("not recovered")
	}
	if err := identical(factsOf(rec.Snapshot(), in.varRels), before); err != nil {
		t.Errorf("recovered state differs: %v", err)
	}
	sentences := rec.Relation("Sentence")
	if err := in.docsPresent(acked, sentences); err != nil {
		t.Errorf("recovered documents: %v", err)
	}
	lost := in.docs[acked[0]]["Sentence"][0][0]
	var without []deepdive.Tuple
	for _, s := range sentences {
		if s[0] != lost {
			without = append(without, s)
		}
	}
	if in.docsPresent(acked, without) == nil {
		t.Error("docsPresent passes with an acknowledged document's sentence lost")
	}
	if len(b.failures) > 0 {
		t.Errorf("stream checks failed: %v", b.failures)
	}
}

// TestWireCheckCatchesWrongEpoch reads one relation over the wire before
// and after a write, then presents the later answer as the earlier
// epoch's, and as an epoch that was never published.
func TestWireCheckCatchesWrongEpoch(t *testing.T) {
	in := smallInputs(t)
	b := testBench(t, in, "serve")
	kb := smallKB(t, in)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := kb.Serve(ctx, deepdive.ServeOptions{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	ph, err := newServePhase(ctx, b, kb, "http://"+srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	s1 := kb.Snapshot()
	if _, err := kb.Updates().Submit(in.docUpdate(in.heldOrder(7)[0])).Wait(ctx); err != nil {
		t.Fatal(err)
	}
	s2 := kb.Snapshot()
	var changed string
	for _, rel := range in.varRels {
		if len(s1.Facts(rel)) != len(s2.Facts(rel)) {
			changed = rel
		}
	}
	if changed == "" {
		t.Fatal("the write changed no relation")
	}
	ph.bulkRel = changed
	r, _, _, err := ph.fetch(1, true, pointKey{})
	if err != nil {
		t.Fatal(err)
	}
	if r.epoch != s2.Epoch() {
		t.Fatalf("read epoch %d, want %d", r.epoch, s2.Epoch())
	}
	if err := wireMatches(r, s2); err != nil {
		t.Errorf("a correct wire read fails: %v", err)
	}
	ph.verify(r)
	if err := readsChecked(ph.cap.counts()); err != nil {
		t.Errorf("a verified wire read counts as unchecked: %v", err)
	}
	if readsChecked(0, 0) == nil {
		t.Error("readsChecked passes a run that verified no read")
	}
	good := *r
	good.epoch = s2.Epoch() + 1000 // an epoch the KB never published
	ph.verify(&good)
	if readsChecked(ph.cap.counts()) == nil {
		t.Error("readsChecked passes reads at an epoch that was never captured")
	}
	r.epoch = s1.Epoch()
	if wireMatches(r, s1) == nil {
		t.Error("wireMatches passes a read answered from the wrong epoch")
	}
	point := &wireRead{relation: changed, tuple: r.facts[len(r.facts)-1].Tuple, epoch: s1.Epoch()}
	point.prob, point.known = s2.Marginal(changed, deepdive.Tuple(point.tuple))
	if wireMatches(point, s1) == nil {
		t.Error("wireMatches passes a point read of a fact its epoch does not hold")
	}

	ph.stop()
	if err := stopServing(srv, kb); err != nil {
		t.Fatal(err)
	}
	if len(b.failures) > 0 {
		t.Errorf("read checks failed: %v", b.failures)
	}
}

// TestWorkloadsPassTheirChecks runs each workload for one second at the
// reduced size: every check must hold and no operation may fail.
func TestWorkloadsPassTheirChecks(t *testing.T) {
	in := smallInputs(t)
	for _, w := range []string{"devloop", "ingest", "serve"} {
		for _, traced := range []bool{false, true} {
			b := newBench(w, 3, time.Second, traced, in, t.TempDir())
			if err := workloads[w](context.Background(), b); err != nil {
				t.Fatalf("%s: %v", w, err)
			}
			if len(b.failures) > 0 {
				t.Errorf("%s (traced %v): %v", w, traced, b.failures)
			}
			if att, failed := b.ops.totals(); att == 0 || failed > 0 {
				t.Errorf("%s: %d operations attempted, %d failed", w, att, failed)
			}
			for _, m := range endToEnd {
				if !traced && !(b.e2e[m.name] > 0) {
					t.Errorf("%s: end-to-end %s = %v", w, m.name, b.e2e[m.name])
				}
			}
		}
	}
}

// TestBenchmarkJSONListsEveryMetric keeps BENCHMARK.json and the metrics
// this program prints in step.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if spec.EndToEnd[i].Name != m.name || spec.EndToEnd[i].Unit != m.unit {
			t.Errorf("end-to-end %d: BENCHMARK.json %v, program %s %s", i, spec.EndToEnd[i], m.name, m.unit)
		}
	}
	layers := layerMetrics()
	if len(spec.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(spec.PerLayer), len(layers))
	}
	for i, m := range layers {
		if spec.PerLayer[i].Name != m[0] || spec.PerLayer[i].Unit != m[1] {
			t.Errorf("per-layer %d: BENCHMARK.json %v, program %v", i, spec.PerLayer[i], m)
		}
	}
}
