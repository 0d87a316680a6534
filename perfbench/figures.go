package main

import (
	"bytes"
	"encoding/json"
	"runtime"
	"time"

	"gpummu/internal/config"
	"gpummu/internal/experiments"
	"gpummu/internal/gpu"
	"gpummu/internal/service"
	"gpummu/internal/workloads"
)

// figures-all-tiny is a researcher's figure run: the whole cmd/experiments
// pipeline, plan → execute → render, for all 15 figures and the six paper
// workloads at tiny size on the small machine, in a fresh Harness on every
// pass (`experiments -size tiny -machine small -j <nproc-1>`, checkpoints
// off). Thousands of short simulations make workload build, planning and
// rendering visible, while page walks stay negligible: an MMU change should
// not move this workload.
//
// The pool leaves one CPU to the collector and the runtime: on a 2-CPU
// host, two workers made the ten-run spread of sim_instr_per_s several
// times wider than one worker did, run for run in the same minutes.

// figuresPass is one run of the pipeline.
type figuresPass struct {
	wall, plan, execute, render time.Duration
	report                      []byte
	renderErr                   error
	results                     []*experiments.RunResult // in plan order; nil where missing
	specs                       []experiments.RunSpec
	workers                     int
}

func figuresOnce(rec *recorder, seed uint64, figs []experiments.Figure) *figuresPass {
	p := &figuresPass{workers: max(1, runtime.NumCPU()-1)}
	var out bytes.Buffer
	root := rec.begin("figures pass", 0, 0)
	h := experiments.New(&out, experiments.Options{
		Size:    workloads.SizeTiny,
		Seed:    seed,
		Machine: config.SmallTest,
		Workers: p.workers,
	})
	sp := rec.begin("experiments.PlanFigures", root.Trace, root.ID)
	plan := h.PlanFigures(figs)
	p.plan = rec.end(sp)

	sp = rec.begin("experiments.Execute", root.Trace, root.ID)
	h.Execute(plan)
	p.execute = rec.end(sp)

	// RunFigures plans again (a few ms, see plan_ms), finds every run
	// already executed, and renders.
	sp = rec.begin("experiments.RunFigures", root.Trace, root.ID)
	p.renderErr = experiments.RunFigures(h, figs)
	p.render = rec.end(sp)
	p.wall = rec.end(root)

	p.report = out.Bytes()
	p.specs = plan.Specs()
	for _, s := range p.specs {
		r, _ := h.Store().Get(s)
		p.results = append(p.results, r)
	}
	return p
}

// checkFigures counts a pass's operations (each spec and the render) and
// fails any that errored or differ from the reference pass; it returns the
// specs that passed. A nil ref makes p the reference and fills refStats.
func checkFigures(out *outcome, p, ref *figuresPass, refStats digest) []*experiments.RunResult {
	var passed []*experiments.RunResult
	out.attempted += len(p.specs) + 1
	if p.renderErr != nil {
		out.failf("figures: render: %v", p.renderErr)
	} else if ref != nil && !bytes.Equal(p.report, ref.report) {
		out.failf("figures: report differs from the first pass")
	}
	for i, s := range p.specs {
		r := p.results[i]
		switch {
		case r == nil:
			out.failf("%s: no result", s)
		case r.Err != nil:
			out.failf("%s: %v", s, r.Err)
		case ref == nil:
			b, err := json.Marshal(r.Stats)
			if err != nil {
				out.failf("%s: %v", s, err)
				continue
			}
			refStats[s.Key()] = b
			passed = append(passed, r)
		case !sameStats(refStats[s.Key()], r.Stats):
			out.failf("%s: simulated stats differ from the first pass", s)
		default:
			passed = append(passed, r)
		}
	}
	return passed
}

// figuresByID returns the figures with the given IDs; nil means all.
func figuresByID(ids []string) ([]experiments.Figure, error) {
	if ids == nil {
		return experiments.All(), nil
	}
	var figs []experiments.Figure
	for _, id := range ids {
		f, err := experiments.ByID(id)
		if err != nil {
			return nil, err
		}
		figs = append(figs, f)
	}
	return figs, nil
}

func runFigures(opt options, rec *recorder) (*outcome, error) {
	out := &outcome{}
	seed := derive(opt.seed, "figures-all-tiny")
	figs, err := figuresByID(opt.size.figures)
	if err != nil {
		return nil, err
	}
	warmFigs, err := figuresByID(opt.size.warmupFigures)
	if err != nil {
		return nil, err
	}

	// Set-up is a few warm-up passes of the pipeline over a few figures (a
	// whole pass is too long to repeat); setup_s is their median, and the
	// first is the reference the others must match.
	var setup []float64
	var warm *figuresPass
	warmStats := digest{}
	for i := 0; i < opt.size.figuresWarmups; i++ {
		p := figuresOnce(rec, seed, warmFigs)
		checkFigures(out, p, warm, warmStats)
		if warm == nil {
			warm = p
		}
		setup = append(setup, p.wall.Seconds())
	}

	// At least two timed passes, so the first is the reference the others
	// must match. Each spec that passed is a job: its latency is the spec's
	// wall time inside the pipeline.
	var ref *figuresPass
	refStats := digest{}
	var passes []*figuresPass
	var instr uint64
	var specWalls []float64
	var busy time.Duration
	shares, err := profiled(opt.trace, "", func() {
		busy = timedPasses(opt.seconds, func() time.Duration {
			p := figuresOnce(rec, seed, figs)
			for _, r := range checkFigures(out, p, ref, refStats) {
				instr += uint64(r.Stats.Instructions)
				specWalls = append(specWalls, ms(r.Wall))
			}
			if ref == nil {
				ref = p
			}
			passes = append(passes, p)
			return p.wall
		})
	})
	if err != nil {
		return nil, err
	}
	out.digest = refStats.sum(ref.report)

	out.e2e.add("setup_s", median(setup))
	out.e2e.add("sim_instr_per_s", ratio(float64(instr), busy.Seconds()))
	addJobs(&out.e2e, specWalls, busy)

	var walls, plans, execs, renders, busyShares []float64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		plans = append(plans, ms(p.plan))
		execs = append(execs, p.execute.Seconds())
		renders = append(renders, ms(p.render))
		var sum time.Duration
		for _, r := range p.results {
			if r != nil {
				sum += r.Wall
			}
		}
		busyShares = append(busyShares, ratio(sum.Seconds(), float64(p.workers)*p.execute.Seconds()))
	}
	out.notef("figures-all-tiny: %d specs per pass, %d workers, %d warm-up passes of %v (median %.3fs), %d timed passes, pass walls %v s",
		len(ref.specs), ref.workers, len(setup), opt.size.warmupFigures, median(setup), len(passes), walls)
	out.notef("spec wall: %s", summary(specWalls))
	if !opt.trace {
		return out, nil
	}

	out.layers.add("experiments.plan_ms", median(plans))
	out.layers.add("experiments.execute_s", median(execs))
	out.layers.add("experiments.render_ms", median(renders))
	out.layers.add("experiments.spec_p50_ms", percentile(specWalls, 0.5))
	out.layers.add("experiments.spec_p90_ms", percentile(specWalls, 0.9))
	out.layers.add("experiments.pool_busy_share", median(busyShares))
	out.layers.add("experiments.specs", float64(len(ref.specs)))
	var counts simCounts
	for _, r := range ref.results {
		if r != nil && r.Stats != nil {
			counts.add(r.Stats)
		}
	}
	counts.addTo(&out.layers)

	// The pipeline times only whole specs, so a serial replay of one pass's
	// plan through the same public calls splits spec time by module. It
	// runs after the profile stops and is checked like the passes.
	var rp moduleTimes
	for _, s := range ref.specs {
		r := runSpec(rec, span{}, s, workloads.SizeTiny, seed, false)
		out.attempted++
		if r.err != nil {
			out.failf("replay %s: %v", s, r.err)
			continue
		}
		if !bytes.Equal(r.statsJSON, refStats[s.Key()]) {
			out.failf("replay %s: simulated stats differ from the pipeline's", s)
		}
		rp.add(r)
	}
	addModuleTimes(&out.layers, []*moduleTimes{&rp})
	out.notef("replay of one pass, serial: build %.1fms new %.1fms run %.3fs check %.1fms",
		ms(rp.build), ms(rp.new), rp.runTotal().Seconds(), ms(rp.check))

	var envs []*service.Result
	for _, r := range ref.results {
		if r != nil && r.Err == nil {
			envs = append(envs, service.FromRun(r, workloads.SizeTiny, seed, gpu.SamplePlan{}))
		}
	}
	if err := addStoreMetrics(out, opt.workdir, envs); err != nil {
		return nil, err
	}
	addShares(&out.layers, shares)
	out.notef("cpu: %s", shares.line())
	return out, nil
}
