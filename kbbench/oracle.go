package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"deepdive"
)

// The checks below compare a KB's published state against a computation
// made apart from the timed path, or against a property the method must
// have. Each returns nil when the property holds and an error naming the
// first violation otherwise; oracle_test.go plants one violation per
// check to show none passes vacuously.

// factKey identifies a fact within its relation.
func factKey(t []string) string { return strings.Join(t, "\x00") }

// facts is a published state: each variable relation's fact table.
type facts map[string][]deepdive.Fact

// factsOf freezes the fact tables of rels in a snapshot.
func factsOf(s *deepdive.Snapshot, rels []string) facts {
	out := make(facts, len(rels))
	for _, rel := range rels {
		out[rel] = s.Facts(rel)
	}
	return out
}

// candidateSets checks that two states hold the same live candidates
// and the same evidence (flag and supervised value) in every relation of
// want: the correctness property of DRed against a from-scratch
// grounding.
func candidateSets(got, want facts) error {
	for _, rel := range sortedRels(want) {
		g, w := got[rel], want[rel]
		wm := make(map[string]deepdive.Fact, len(w))
		for _, f := range w {
			wm[factKey(f.Tuple)] = f
		}
		if len(g) != len(w) {
			return fmt.Errorf("%s: %d candidates, want %d", rel, len(g), len(w))
		}
		for _, f := range g {
			o, ok := wm[factKey(f.Tuple)]
			switch {
			case !ok:
				return fmt.Errorf("%s%v: candidate missing from the reference", rel, f.Tuple)
			case f.Evidence != o.Evidence || (f.Evidence && f.Probability != o.Probability):
				return fmt.Errorf("%s%v: evidence %v/%v, reference %v/%v", rel, f.Tuple, f.Evidence, f.Probability, o.Evidence, o.Probability)
			}
		}
	}
	return nil
}

// identical checks that two states serve the same facts with
// bit-identical marginals in every relation of want.
func identical(got, want facts) error {
	for _, rel := range sortedRels(want) {
		if err := sameFacts(rel, got[rel], want[rel]); err != nil {
			return err
		}
	}
	return nil
}

// sameFacts compares two fact tables of one relation, order included.
func sameFacts(rel string, got, want []deepdive.Fact) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d facts, want %d", rel, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if factKey(g.Tuple) != factKey(w.Tuple) || g.Known != w.Known || g.Evidence != w.Evidence ||
			math.Float64bits(g.Probability) != math.Float64bits(w.Probability) {
			return fmt.Errorf("%s fact %d: got %v %v known=%v, want %v %v known=%v",
				rel, i, g.Tuple, g.Probability, g.Known, w.Tuple, w.Probability, w.Known)
		}
	}
	return nil
}

// marginalsValid checks that every marginal lies in [0,1] and that every
// query fact is Known once the final publication is out.
func marginalsValid(st facts) error {
	for _, rel := range sortedRels(st) {
		for _, f := range st[rel] {
			if !f.Known {
				return fmt.Errorf("%s%v: no marginal after the final publication", rel, f.Tuple)
			}
			if !(f.Probability >= 0 && f.Probability <= 1) {
				return fmt.Errorf("%s%v: marginal %v outside [0,1]", rel, f.Tuple, f.Probability)
			}
		}
	}
	return nil
}

// f1 scores a snapshot against the generator's truth, micro-averaged
// over the variable relations, at mention level: a fact is claimed when
// it is supervised true or its marginal exceeds 0.5.
func (in *inputs) f1(st facts) float64 {
	tp, fp, fn := 0, 0, 0
	for _, rel := range in.varRels {
		for _, f := range st[rel] {
			e1, ok1 := in.entity[f.Tuple[0]]
			e2, ok2 := in.entity[f.Tuple[1]]
			if !ok1 || !ok2 {
				continue
			}
			truth := in.sys.IsTrue(in.relNames[rel], e1, e2)
			pred := f.Known && f.Probability > 0.5
			switch {
			case pred && truth:
				tp++
			case pred:
				fp++
			case truth:
				fn++
			}
		}
	}
	if tp == 0 {
		return 0
	}
	p, r := float64(tp)/float64(tp+fp), float64(tp)/float64(tp+fn)
	return 2 * p * r / (p + r)
}

// sortedRels lists a state's relations in a fixed order, so the first
// violation reported is the same on every run.
func sortedRels(st facts) []string {
	out := make([]string, 0, len(st))
	for rel := range st {
		out = append(out, rel)
	}
	sort.Strings(out)
	return out
}

// f1Close checks that an incremental KB's F1 is within f1Eps of the
// from-scratch reference's.
func f1Close(got, want float64) error {
	if math.Abs(got-want) > f1Eps {
		return fmt.Errorf("F1 %.4f vs reference %.4f: gap above %.2f", got, want, f1Eps)
	}
	return nil
}

// docsPresent checks that every acknowledged document's sentences are in
// the given Sentence relation.
func (in *inputs) docsPresent(acked []int, sentences []deepdive.Tuple) error {
	have := make(map[string]bool, len(sentences))
	for _, t := range sentences {
		have[t[0]] = true
	}
	for _, d := range acked {
		for _, t := range in.docs[d]["Sentence"] {
			if !have[t[0]] {
				return fmt.Errorf("acknowledged document %d: sentence %s lost", d, t[0])
			}
		}
	}
	return nil
}

// wireRead is one decoded HTTP read: a point read names one fact, a
// bulk read carries a whole relation.
type wireRead struct {
	epoch    uint64
	relation string
	tuple    []string // point read
	prob     float64  // point read
	known    bool     // point read
	facts    []deepdive.Fact
	bulk     bool
}

// wireMatches checks that a wire read equals the in-process snapshot of
// the epoch the response reports.
func wireMatches(r *wireRead, s *deepdive.Snapshot) error {
	if s.Epoch() != r.epoch {
		return fmt.Errorf("read at epoch %d checked against snapshot %d", r.epoch, s.Epoch())
	}
	if r.bulk {
		return sameFacts(r.relation, r.facts, s.Facts(r.relation))
	}
	p, ok := s.Marginal(r.relation, deepdive.Tuple(r.tuple))
	if ok != r.known || (ok && math.Float64bits(p) != math.Float64bits(r.prob)) {
		return fmt.Errorf("epoch %d %s%v: wire %v/%v, snapshot %v/%v", r.epoch, r.relation, r.tuple, r.prob, r.known, p, ok)
	}
	return nil
}

// sortedFacts returns a subscriber's reconstructed relation as a fact
// table ordered like want, so the two compare with sameFacts; facts
// missing from want sort last.
func sortedFacts(m map[string]deepdive.Fact, want []deepdive.Fact) []deepdive.Fact {
	pos := make(map[string]int, len(want))
	for i, f := range want {
		pos[factKey(f.Tuple)] = i
	}
	out := make([]deepdive.Fact, 0, len(m))
	for _, f := range m {
		out = append(out, f)
	}
	rank := func(f deepdive.Fact) int {
		if i, ok := pos[factKey(f.Tuple)]; ok {
			return i
		}
		return len(want)
	}
	sort.SliceStable(out, func(i, j int) bool {
		ri, rj := rank(out[i]), rank(out[j])
		if ri != rj {
			return ri < rj
		}
		return factKey(out[i].Tuple) < factKey(out[j].Tuple)
	})
	return out
}
