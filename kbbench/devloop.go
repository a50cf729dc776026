package main

import (
	"context"
	"fmt"
	"time"

	"deepdive"
	"deepdive/internal/kbc"
)

// runDevloop is the paper's Fig. 9 loop on the shipped KB. Each round
// materializes the base program over the whole corpus, then absorbs the
// iterations A1, FE1, FE2, I1, S1 and S2 with KB.Apply (the incremental
// arm) and keeps the state published after each. Then, for each
// iteration, it builds a fresh KB over the cumulative program (the
// rerun arm), which must hold the same candidates and evidence as the
// incremental KB held after that iteration, with F1 within f1Eps.
// cpu_s is a round's CPU time, set-up and both arms, checks excluded.
// peak_rss_mb is read after the first round's incremental arm, before
// any rerun KB is built.
func runDevloop(ctx context.Context, b *bench) error {
	in := b.in
	all := in.tuplesOf(docRange(0, len(in.docs)))
	opts := options(b.seed)
	var setups, incs, reruns, speedups, f1s, cpus []float64
	var tracedWalls, untracedWalls []float64
	start := time.Now()
	for round := 0; b.moreRounds(start, round); round++ {
		traced := b.roundTraced(round)
		b.tr.on.Store(traced)
		cpu := startCPU()
		t0 := time.Now()
		kb, err := build(ctx, b.tr, "setup", in.src, all, opts)
		if err == nil {
			err = materialize(ctx, b.tr, "setup", kb)
		}
		b.ops.note("setup", err)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())

		var incS, newVars, newFactors float64
		states := make([]facts, len(kbc.IterationNames))
		for i, it := range kbc.IterationNames {
			var res *deepdive.UpdateResult
			t := time.Now()
			err := b.tr.call("Apply", it, func() (err error) {
				res, err = kb.Apply(ctx, deepdive.Update{RuleSource: in.rules[it]})
				return err
			})
			d := time.Since(t).Seconds()
			b.ops.note("apply", err)
			if err != nil {
				kb.Close()
				return fmt.Errorf("apply %s: %w", it, err)
			}
			incS += d
			newVars += float64(res.NewVars)
			newFactors += float64(res.NewFactors)
			b.tr.sample("ground.apply_ms."+it, ms(res.GroundTime))
			b.tr.sample("learn.apply_ms."+it, ms(res.LearnTime))
			b.tr.sample("inc.apply_ms."+it, ms(res.InferTime))
			b.tr.sample("inc.acceptance."+it, res.Acceptance)
			b.tr.sample("inc.sampling."+it, boolf(res.Strategy == deepdive.StrategySampling))
			cpu.exclude(func() { states[i] = factsOf(kb.Snapshot(), in.varRels) })
		}
		final := states[len(states)-1]
		cpu.exclude(func() {
			b.check("devloop final marginals", marginalsValid(final))
			f1s = append(f1s, in.f1(final))
		})
		if round == 0 {
			b.e2e["peak_rss_mb"] = b.peakRSS()
		}
		if err := kb.Close(); err != nil {
			return fmt.Errorf("close: %w", err)
		}

		var rerunS float64
		src := in.src
		for i, it := range kbc.IterationNames {
			src += in.rules[it]
			t := time.Now()
			ref, err := build(ctx, b.tr, "rerun/"+it, src, all, opts)
			b.ops.note("rerun", err)
			if err != nil {
				return fmt.Errorf("rerun %s: %w", it, err)
			}
			rerunS += time.Since(t).Seconds()
			cpu.exclude(func() {
				want := factsOf(ref.Snapshot(), in.varRels)
				b.check("devloop "+it+" candidates", candidateSets(states[i], want))
				b.check("devloop "+it+" f1", f1Close(in.f1(states[i]), in.f1(want)))
			})
			if err := ref.Close(); err != nil {
				return fmt.Errorf("close rerun KB %s: %w", it, err)
			}
		}
		cpus = append(cpus, cpu.seconds())
		incs = append(incs, incS)
		reruns = append(reruns, rerunS)
		speedups = append(speedups, rerunS/incS)
		b.tr.sample("ground.new_vars", newVars)
		b.tr.sample("ground.new_factors", newFactors)
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
	b.layer["run.inc_s"] = median(incs)
	b.layer["run.rerun_s"] = median(reruns)
	b.layer["run.speedup"] = median(speedups)
	fmt.Printf("devloop rounds=%d cpu_s=%.3f inc_s=%.3f rerun_s=%.3f\n", len(incs), median(cpus), median(incs), median(reruns))

	b.setupLayers()
	for _, it := range kbc.IterationNames {
		label := "rerun/" + it
		b.layer["ground.rerun_ms."+it] = 1000 * (median(b.tr.durations("Load", label)) + median(b.tr.durations("Init", label)))
		b.layer["learn.rerun_ms."+it] = 1000 * median(b.tr.durations("Learn", label))
		b.layer["gibbs.rerun_ms."+it] = 1000 * median(b.tr.durations("Infer", label))
	}
	b.layer["run.trace_overhead_pct"] = traceOverhead(tracedWalls, untracedWalls)
	return nil
}

// setupLayers fills the per-layer metrics of the set-up calls and every
// per-layer metric recorded as samples under its own name.
func (b *bench) setupLayers() {
	b.layer["ground.init_s"] = median(b.tr.durations("Init", "setup"))
	b.layer["learn.full_s"] = median(b.tr.durations("Learn", "setup"))
	b.layer["gibbs.infer_s"] = median(b.tr.durations("Infer", "setup"))
	b.layer["inc.materialize_s"] = median(b.tr.durations("Materialize", "setup"))
	b.layer["persist.checkpoint_s"] = median(b.tr.durations("Checkpoint", "setup"))
	for _, m := range layerMetrics() {
		if v := b.tr.values(m[0]); len(v) > 0 {
			b.layer[m[0]] = median(v)
		}
	}
}

// peakRSS reads the resident-set high-water mark. Each workload calls it
// before it builds any rerun or reference KB, so the figure is the
// measured KB's and not the checks' (the benchmark's inputs and the
// fact tables it keeps for its checks are included).
func (b *bench) peakRSS() float64 {
	v := peakRSSMB()
	if v <= 0 {
		b.check("peak RSS", fmt.Errorf("VmHWM unreadable"))
	}
	return v
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func boolf(v bool) float64 {
	if v {
		return 1
	}
	return 0
}
