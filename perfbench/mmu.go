package main

import (
	"bytes"
	"fmt"
	"time"

	"gpummu/internal/config"
	"gpummu/internal/experiments"
	"gpummu/internal/gpu"
	"gpummu/internal/service"
	"gpummu/internal/workloads"
)

// mmu-small is the paper's headline comparison: each workload under no TLB,
// the naive blocking TLB and the augmented MMU, at small size on the
// baseline machine cut to 4 cores (`gpusim -cores 4 -mmu <class>`), one
// simulation at a time with serial ticking, each spec built cold, run and
// checked. The naive runs spend their host time polling stalled warps (gpu)
// and in the MMU (core); the none and augmented runs spend theirs on ALU
// work and functional memory (vm), so a gpu/core change and a vm change
// show on different classes.

// mmuWorkloads are the workloads of the comparison. bfs is left out to fit
// the run length: with it a pass takes about 26 s on a 2-CPU host, without
// it about 18 s (memcached 11.7 s, mummergpu 6.2 s).
var mmuWorkloads = []string{"memcached", "mummergpu"}

// mmuWarmups is how many tiny warm-up passes precede the timed ones.
const mmuWarmups = 15

// mmuSpecs returns every (workload, MMU class) spec in pass order.
func mmuSpecs() []experiments.RunSpec {
	var specs []experiments.RunSpec
	for _, w := range mmuWorkloads {
		for _, c := range mmuClasses {
			cfg := config.Baseline()
			cfg.NumCores = 4
			cfg.MMU = mmuFor(c)
			specs = append(specs, experiments.RunSpec{Workload: w, Config: cfg})
		}
	}
	return specs
}

// mmuPass is one run of every spec.
type mmuPass struct {
	runs []*specRun
	wall time.Duration
}

func mmuOnce(rec *recorder, specs []experiments.RunSpec, size workloads.Size, seed uint64, label bool) *mmuPass {
	p := &mmuPass{}
	root := rec.begin("mmu-small pass", 0, 0)
	for _, s := range specs {
		p.runs = append(p.runs, runSpec(rec, root, s, size, seed, label))
	}
	p.wall = rec.end(root)
	return p
}

// checkMMU counts a pass's specs and fails any that errored or whose stats
// differ from ref's; it returns those that passed. A nil ref checks p on
// its own.
func checkMMU(out *outcome, p, ref *mmuPass) []*specRun {
	var passed []*specRun
	for i, r := range p.runs {
		out.attempted++
		switch {
		case r.err != nil:
			out.failf("%s: %v", r.spec, r.err)
		case ref != nil && (ref.runs[i].err != nil || !bytes.Equal(r.statsJSON, ref.runs[i].statsJSON)):
			out.failf("%s: simulated stats differ from the first pass", r.spec)
		default:
			passed = append(passed, r)
		}
	}
	return passed
}

func runMMU(opt options, rec *recorder) (*outcome, error) {
	out := &outcome{}
	seed := derive(opt.seed, "mmu-small")
	specs := mmuSpecs()

	// Set-up is a few warm-up passes over the same specs at tiny size (a
	// small pass is too long to repeat); setup_s is their median.
	var setup []float64
	var warm *mmuPass
	for i := 0; i < mmuWarmups; i++ {
		p := mmuOnce(rec, specs, workloads.SizeTiny, seed, false)
		checkMMU(out, p, warm)
		if warm == nil {
			warm = p
		}
		setup = append(setup, p.wall.Seconds())
	}

	// At least two timed passes, so the first is the reference the second
	// must match. A job is a whole pass whose specs all passed, the
	// comparison as a researcher runs it: a single spec of about a second
	// is exposed to short swings in host speed that a pass averages out.
	var passes []*mmuPass
	var instr uint64
	var specWalls, passWalls []float64
	var busy time.Duration
	shares, err := profiled(opt.trace, "mmu", func() {
		busy = timedPasses(opt.seconds, func() time.Duration {
			var ref *mmuPass
			if len(passes) > 0 {
				ref = passes[0]
			}
			p := mmuOnce(rec, specs, opt.size.mmuSize, seed, opt.trace)
			passed := checkMMU(out, p, ref)
			for _, r := range passed {
				instr += uint64(r.stats.Instructions)
				specWalls = append(specWalls, ms(r.total))
			}
			if len(passed) == len(p.runs) {
				passWalls = append(passWalls, ms(p.wall))
			}
			passes = append(passes, p)
			return p.wall
		})
	})
	if err != nil {
		return nil, err
	}
	ref := passes[0]
	d := digest{}
	for _, r := range ref.runs {
		d[r.spec.Key()] = r.statsJSON
	}
	out.digest = d.sum()

	out.e2e.add("setup_s", median(setup))
	out.e2e.add("sim_instr_per_s", ratio(float64(instr), busy.Seconds()))
	addJobs(&out.e2e, passWalls, busy)
	var walls []float64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
	}
	out.notef("mmu-small: workloads %v x classes %v, %d tiny warm-up passes (median %.3fs), timed pass walls %v s",
		mmuWorkloads, mmuClasses, len(setup), median(setup), walls)
	for _, r := range passes[0].runs {
		out.notef("spec %-10s %-9s build %7.1fms new %6.1fms run %7.3fs check %6.1fms",
			r.spec.Workload, r.class, ms(r.build), ms(r.new), r.run.Seconds(), ms(r.check))
	}
	if !opt.trace {
		return out, nil
	}

	var rps []*moduleTimes
	for _, p := range passes {
		rp := &moduleTimes{}
		for _, r := range p.runs {
			if r.err == nil {
				rp.add(r)
			}
		}
		rps = append(rps, rp)
	}
	addModuleTimes(&out.layers, rps)
	out.layers.add("experiments.spec_p50_ms", percentile(specWalls, 0.5))
	out.layers.add("experiments.spec_p90_ms", percentile(specWalls, 0.9))
	out.layers.add("experiments.specs", float64(len(specs)))
	var counts simCounts
	var envs []*service.Result
	for _, r := range ref.runs {
		if r.err == nil {
			counts.add(r.stats)
			res := &experiments.RunResult{Spec: r.spec, Stats: r.stats, Wall: r.total}
			envs = append(envs, service.FromRun(res, opt.size.mmuSize, seed, gpu.SamplePlan{}))
		}
	}
	counts.addTo(&out.layers)
	if err := addStoreMetrics(out, opt.workdir, envs); err != nil {
		return nil, err
	}
	addShares(&out.layers, shares)
	out.notef("cpu: %s", shares.line())
	for _, c := range mmuClasses {
		if s := shares.byLabel[c]; s != nil {
			out.notef("cpu[%s]: %s gpu+core=%.3f", c, s.line(), s.share("gpu")+s.share("core"))
		}
	}
	out.notef("largest part of the pass: %s", largestClass(rps[0]))
	return out, nil
}

// largestClass names the MMU class whose Run calls took longest.
func largestClass(rp *moduleTimes) string {
	best, bestT := "", time.Duration(-1)
	for _, c := range mmuClasses {
		if rp.run[c] > bestT {
			best, bestT = c, rp.run[c]
		}
	}
	return fmt.Sprintf("gpu.run_%s_s = %.3fs", best, bestT.Seconds())
}
