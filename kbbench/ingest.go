package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"deepdive"
)

// ingestWindow is how many documents the single submitter keeps in
// flight: it pauses the queue, submits a window, resumes and waits for
// every ticket, so each window is exactly one coalesced batch and every
// run applies the same batches.
const ingestWindow = 4

// runIngest streams the held-out documents into a durable KB. Each
// round sets up a KB over base+FE1+S1 with a data directory and
// checkpoints it, submits one insert update per held-out document
// through Updates(), then closes the KB and recovers it from the
// snapshot plus WAL replay; recovery must reproduce the pre-close
// snapshot bit for bit. Last it builds a KB from scratch over the same
// documents (the rerun arm), whose candidates the streamed KB's must
// equal. cpu_s is a round's CPU time, checks excluded. peak_rss_mb is
// read after the first round's recovery, before any rerun KB is built.
// run.speedup is the rerun's seconds over the median seconds from
// Submit to a document's published result.
func runIngest(ctx context.Context, b *bench) error {
	in := b.in
	src := in.program("FE1", "S1")
	baseDocs := docRange(0, in.baseDocs())
	base := in.tuplesOf(baseDocs)
	order := in.heldOrder(b.seed)
	var setups, rates, fresh, reruns, speedups, recovers, f1s, cpus []float64
	var tracedWalls, untracedWalls []float64
	start := time.Now()
	for round := 0; b.moreRounds(start, round); round++ {
		traced := b.roundTraced(round)
		b.tr.on.Store(traced)
		cpu := startCPU()
		t0 := time.Now()
		dir := filepath.Join(b.dir, fmt.Sprintf("round%d", round))
		plan := deepdive.NewIOFaultPlan(b.seed) // nothing armed: it only counts calls
		kb, err := build(ctx, b.tr, "setup", src, base, options(b.seed, deepdive.WithDataDir(dir), deepdive.WithIOFaults(plan)))
		if err == nil {
			err = materialize(ctx, b.tr, "setup", kb)
		}
		if err == nil {
			err = b.tr.call("Checkpoint", "setup", func() error { return kb.Checkpoint(ctx) })
		}
		b.ops.note("setup", err)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())

		acked, roundFresh, streamS := b.stream(ctx, kb, order)
		fresh = append(fresh, roundFresh...)
		rates = append(rates, float64(len(acked))/streamS)
		var before facts
		cpu.exclude(func() {
			before = factsOf(kb.Snapshot(), in.varRels)
			b.check("ingest final marginals", marginalsValid(before))
			f1s = append(f1s, in.f1(before))
		})
		b.tr.sample("queue.batches", float64(kb.Updates().Stats().Batches))
		if err := kb.Close(); err != nil {
			return fmt.Errorf("close: %w", err)
		}
		b.tr.sample("persist.wal_appends", float64(plan.Calls(deepdive.IOWALAppend)))
		b.tr.sample("persist.wal_syncs", float64(plan.Calls(deepdive.IOWALSync)))
		b.tr.sample("persist.wal_kb", filesKB(dir, "wal-*.log"))
		b.tr.sample("persist.snapshot_kb", filesKB(dir, "snap-*.ddkb"))

		var rec *deepdive.KB
		t := time.Now()
		err = b.tr.call("OpenKB", "recover", func() (err error) {
			rec, err = deepdive.OpenKB(src, options(b.seed, deepdive.WithDataDir(dir))...)
			return err
		})
		recovers = append(recovers, time.Since(t).Seconds())
		b.ops.note("recovery", err)
		if err != nil {
			return fmt.Errorf("recovery: %w", err)
		}
		cpu.exclude(func() {
			if !rec.Recovered() {
				b.check("ingest recovery", fmt.Errorf("OpenKB on the data directory did not recover"))
			}
			b.check("ingest recovered marginals", identical(factsOf(rec.Snapshot(), in.varRels), before))
			b.check("ingest recovered documents", in.docsPresent(acked, rec.Relation("Sentence")))
		})
		if err := rec.Close(); err != nil {
			return fmt.Errorf("close recovered KB: %w", err)
		}
		if round == 0 {
			b.e2e["peak_rss_mb"] = b.peakRSS()
		}

		t = time.Now()
		ref, err := build(ctx, b.tr, "rerun", src, in.tuplesOf(append(append([]int(nil), baseDocs...), acked...)), options(b.seed))
		b.ops.note("rerun", err)
		if err != nil {
			return fmt.Errorf("rerun: %w", err)
		}
		reruns = append(reruns, time.Since(t).Seconds())
		speedups = append(speedups, reruns[len(reruns)-1]/median(roundFresh))
		cpu.exclude(func() {
			want := factsOf(ref.Snapshot(), in.varRels)
			b.check("ingest candidates", candidateSets(before, want))
			b.check("ingest f1", f1Close(in.f1(before), in.f1(want)))
		})
		if err := ref.Close(); err != nil {
			return fmt.Errorf("close rerun KB: %w", err)
		}
		cpus = append(cpus, cpu.seconds())
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		wall := time.Since(t0).Seconds()
		if traced {
			tracedWalls = append(tracedWalls, wall)
		} else {
			untracedWalls = append(untracedWalls, wall)
		}
	}
	b.tr.on.Store(false)
	b.e2e["setup_s"] = median(setups)
	b.e2e["f1"] = median(f1s)
	b.e2e["cpu_s"] = median(cpus)
	b.layer["run.inc_s"] = median(fresh)
	b.layer["run.rerun_s"] = median(reruns)
	b.layer["run.speedup"] = median(speedups)
	b.layer["queue.docs_per_s"] = median(rates)
	b.layer["queue.update_p50_ms"] = median(fresh) * 1000
	b.layer["persist.recover_s"] = median(recovers)
	fmt.Printf("ingest rounds=%d cpu_s=%.3f docs_per_s=%.2f fresh_p50_ms=%.1f rerun_s=%.3f recover_s=%.3f\n",
		len(rates), median(cpus), median(rates), median(fresh)*1000, median(reruns), median(recovers))

	b.setupLayers()
	b.layer["run.trace_overhead_pct"] = traceOverhead(tracedWalls, untracedWalls)
	return nil
}

// stream submits the documents of order in windows of ingestWindow and
// waits for each window's tickets. It returns the acknowledged documents,
// their Submit-to-published seconds and the stream's wall time, and
// checks that every submit is acknowledged and that epochs strictly
// increase from batch to batch.
func (b *bench) stream(ctx context.Context, kb *deepdive.KB, order []int) ([]int, []float64, float64) {
	q := kb.Updates()
	var acked []int
	var fresh []float64
	var lastEpoch uint64
	var newVars, newFactors float64
	start := time.Now()
	for w := 0; w < len(order); w += ingestWindow {
		docs := order[w:min(w+ingestWindow, len(order))]
		tickets := make([]*deepdive.Ticket, len(docs))
		sent := make([]time.Time, len(docs))
		spans := make([]int, len(docs))
		q.Pause()
		for i, d := range docs {
			spans[i] = b.tr.begin("Submit→Wait", "ingest", uint64(d)+1, -1)
			sent[i] = time.Now()
			tickets[i] = q.Submit(b.in.docUpdate(d))
		}
		q.Resume()
		var batch *deepdive.UpdateResult
		for i, t := range tickets {
			res, err := t.Wait(ctx)
			lat := time.Since(sent[i])
			b.tr.end(spans[i])
			b.ops.note("submit", err)
			if err != nil {
				b.check("ingest submit", fmt.Errorf("document %d: %w", docs[i], err))
				continue
			}
			switch {
			case batch == nil && res.Epoch <= lastEpoch:
				b.check("ingest epochs", fmt.Errorf("batch published epoch %d after %d", res.Epoch, lastEpoch))
			case batch != nil && res.Epoch != batch.Epoch:
				b.check("ingest epochs", fmt.Errorf("one window published epochs %d and %d", batch.Epoch, res.Epoch))
			}
			if batch == nil {
				batch = res
			}
			lastEpoch = res.Epoch
			fresh = append(fresh, lat.Seconds())
			b.tr.sample("queue.wait_p50_ms", ms(lat-res.GroundTime-res.LearnTime-res.InferTime))
			acked = append(acked, docs[i])
		}
		if batch != nil {
			b.sampleBatch(batch)
			newVars += float64(batch.NewVars)
			newFactors += float64(batch.NewFactors)
		}
	}
	b.tr.sample("ground.new_vars", newVars)
	b.tr.sample("ground.new_factors", newFactors)
	return acked, fresh, time.Since(start).Seconds()
}

// sampleBatch records the apply-stage split of one queue batch.
func (b *bench) sampleBatch(res *deepdive.UpdateResult) {
	b.tr.sample("ground.batch_p50_ms", ms(res.GroundTime))
	b.tr.sample("learn.batch_p50_ms", ms(res.LearnTime))
	b.tr.sample("inc.batch_p50_ms", ms(res.InferTime))
}

// filesKB sums the sizes of the files matching pattern in dir, in KB.
func filesKB(dir, pattern string) float64 {
	paths, _ := filepath.Glob(filepath.Join(dir, pattern)) // the pattern is well formed
	var n int64
	for _, p := range paths {
		if st, err := os.Stat(p); err == nil {
			n += st.Size()
		}
	}
	return float64(n) / 1024
}
