package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime/pprof"
	"sort"
	"time"

	"gpummu/internal/config"
	"gpummu/internal/experiments"
	"gpummu/internal/gpu"
	"gpummu/internal/stats"
	"gpummu/internal/workloads"
)

// MMU classes: the paper's no-TLB baseline, the CPU-style blocking TLB and
// the augmented MMU (Figs. 2 and 10).
var mmuClasses = []string{"none", "naive", "augmented"}

// mmuFor returns the MMU of a class as `gpusim -mmu <class>` builds it.
func mmuFor(class string) config.MMU {
	switch class {
	case "naive":
		return config.NaiveMMU(4)
	case "augmented":
		return config.AugmentedMMU()
	}
	return config.MMU{Enabled: false}
}

// classOf names the MMU class of a machine, or "other" for the figure
// variants that are neither (ideal, non-blocking, partial augmentations).
func classOf(m config.MMU) string {
	switch {
	case !m.Enabled:
		return "none"
	case m.IdealLatency || m.SoftwareWalks:
		return "other"
	case m.HitsUnderMiss && m.CacheOverlap && m.PTWSched:
		return "augmented"
	case !m.HitsUnderMiss && !m.CacheOverlap && !m.PTWSched:
		return "naive"
	}
	return "other"
}

// specRun is one spec taken through workloads.Build → gpu.New →
// (*gpu.GPU).Run → Workload.Check, timed call by call.
type specRun struct {
	spec  experiments.RunSpec
	class string

	build, new, run, check time.Duration
	total                  time.Duration // the whole spec, build to check

	stats       *stats.Sim // nil when err != nil
	statsJSON   []byte
	backedPages int
	err         error
}

// runSpec executes spec cold, as one gpusim invocation does, as a child of
// parent (the zero span starts a new trace). With label
// set, the Run call carries the pprof label mmu=<class>, so the profile
// splits by MMU class.
func runSpec(rec *recorder, parent span, spec experiments.RunSpec, size workloads.Size, seed uint64, label bool) *specRun {
	r := &specRun{spec: spec, class: classOf(spec.Config.MMU)}
	root := rec.begin("spec "+spec.Workload+"/"+r.class, parent.Trace, parent.ID)
	defer func() { r.total = rec.end(root) }()

	sp := rec.begin("workloads.Build", root.Trace, root.ID)
	wl, err := workloads.Build(spec.Workload, size, spec.Config.PageShift, seed)
	r.build = rec.end(sp)
	if err != nil {
		r.err = err
		return r
	}

	st := &stats.Sim{}
	sp = rec.begin("gpu.New", root.Trace, root.ID)
	g, err := gpu.New(spec.Config, wl.AS, st)
	r.new = rec.end(sp)
	if err != nil {
		r.err = err
		return r
	}

	sp = rec.begin("gpu.Run", root.Trace, root.ID)
	if label {
		pprof.Do(context.Background(), pprof.Labels("mmu", r.class), func(context.Context) {
			_, err = g.Run(wl.Launch)
		})
	} else {
		_, err = g.Run(wl.Launch)
	}
	r.run = rec.end(sp)
	if err != nil {
		r.err = err
		return r
	}

	if wl.Check != nil {
		sp = rec.begin("workloads.Check", root.Trace, root.ID)
		err = wl.Check()
		r.check = rec.end(sp)
		if err != nil {
			r.err = fmt.Errorf("functional check: %w", err)
			return r
		}
	}
	r.backedPages = wl.AS.Mem.BackedPages()
	r.stats = st
	r.statsJSON, r.err = json.Marshal(st)
	return r
}

// simCounts sums the simulated statistics the per-layer metrics report.
type simCounts struct {
	cycles, instructions, memInstrs, idle               uint64
	tlbAccesses, tlbHits, walks, walkRefs, walkRefsCoal uint64
	l1Accesses, l1Hits, l2Accesses, l2Hits, walkCache   uint64
}

func (c *simCounts) add(st *stats.Sim) {
	c.cycles += st.Cycles
	c.instructions += uint64(st.Instructions)
	c.memInstrs += uint64(st.MemInstrs)
	c.idle += uint64(st.IdleCycles)
	c.tlbAccesses += uint64(st.TLBAccesses)
	c.tlbHits += uint64(st.TLBHits)
	c.walks += uint64(st.Walks)
	c.walkRefs += uint64(st.WalkRefs)
	c.walkRefsCoal += uint64(st.WalkRefsCoalesced)
	c.l1Accesses += uint64(st.L1Accesses)
	c.l1Hits += uint64(st.L1Hits)
	c.l2Accesses += uint64(st.L2Accesses)
	c.l2Hits += uint64(st.L2Hits)
	c.walkCache += uint64(st.WalkCacheHits)
}

// addTo reports the counts as gpu, core and mem metrics.
func (c *simCounts) addTo(m *metrics) {
	m.add("gpu.cycles", float64(c.cycles))
	m.add("gpu.instructions", float64(c.instructions))
	m.add("gpu.mem_instrs", float64(c.memInstrs))
	m.add("gpu.idle_core_cycles", float64(c.idle))
	m.add("core.tlb_accesses", float64(c.tlbAccesses))
	m.add("core.tlb_hit_rate", ratio(float64(c.tlbHits), float64(c.tlbAccesses)))
	m.add("core.walks", float64(c.walks))
	m.add("core.walk_refs", float64(c.walkRefs))
	m.add("core.walk_refs_coalesced", float64(c.walkRefsCoal))
	m.add("mem.l1_accesses", float64(c.l1Accesses))
	m.add("mem.l1_hit_rate", ratio(float64(c.l1Hits), float64(c.l1Accesses)))
	m.add("mem.l2_accesses", float64(c.l2Accesses))
	m.add("mem.l2_hit_rate", ratio(float64(c.l2Hits), float64(c.l2Accesses)))
	m.add("mem.walk_cache_hits", float64(c.walkCache))
}

// digest hashes simulated statistics by spec key, so two runs with the
// same seed can be compared at a glance: a change meant only to speed the
// simulator up must leave it unchanged.
type digest map[string][]byte

func (d digest) sum(extra ...[]byte) string {
	keys := make([]string, 0, len(d))
	for k := range d {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s\n%s\n", k, d[k])
	}
	for _, b := range extra {
		h.Write(b)
	}
	return fmt.Sprintf("sha256:%x", h.Sum(nil))
}

// sameStats reports whether a spec's stats match its reference bytes.
func sameStats(ref []byte, st *stats.Sim) bool {
	b, err := json.Marshal(st)
	return err == nil && bytes.Equal(ref, b)
}

// timedPasses runs pass at least twice, then again while another pass
// would end within d of the start; it returns the passes' summed wall time.
func timedPasses(d time.Duration, pass func() time.Duration) time.Duration {
	var busy, last time.Duration
	for n, start := 0, time.Now(); n < 2 || time.Since(start)+last <= d; n++ {
		last = pass()
		busy += last
	}
	return busy
}

// addJobs reports the end-to-end job metrics of jobs that took lat
// milliseconds each and completed within busy.
func addJobs(m *metrics, lat []float64, busy time.Duration) {
	m.add("jobs_per_s", ratio(float64(len(lat)), busy.Seconds()))
	m.add("job_p50_ms", percentile(lat, 0.5))
	m.add("job_p90_ms", percentile(lat, 0.9))
}

// moduleTimes sums the per-module times of a set of spec runs.
type moduleTimes struct {
	build, new, check time.Duration
	run               map[string]time.Duration // by MMU class
	cycles            uint64
	backedPages       int
}

func (rp *moduleTimes) add(r *specRun) {
	if rp.run == nil {
		rp.run = map[string]time.Duration{}
	}
	rp.build += r.build
	rp.new += r.new
	rp.check += r.check
	rp.run[r.class] += r.run
	rp.cycles += r.stats.Cycles
	rp.backedPages += r.backedPages
}

func (rp *moduleTimes) runTotal() time.Duration {
	var t time.Duration
	for _, d := range rp.run {
		t += d
	}
	return t
}

// addModuleTimes reports the median over passes of each sum.
func addModuleTimes(m *metrics, rps []*moduleTimes) {
	med := func(f func(*moduleTimes) float64) float64 {
		xs := make([]float64, len(rps))
		for i, rp := range rps {
			xs[i] = f(rp)
		}
		return median(xs)
	}
	m.add("workloads.build_ms", med(func(rp *moduleTimes) float64 { return ms(rp.build) }))
	m.add("workloads.check_ms", med(func(rp *moduleTimes) float64 { return ms(rp.check) }))
	m.add("gpu.new_ms", med(func(rp *moduleTimes) float64 { return ms(rp.new) }))
	for _, c := range mmuClasses {
		m.add("gpu.run_"+c+"_s", med(func(rp *moduleTimes) float64 { return rp.run[c].Seconds() }))
	}
	m.add("gpu.host_ns_per_cycle", med(func(rp *moduleTimes) float64 {
		return ratio(float64(rp.runTotal().Nanoseconds()), float64(rp.cycles))
	}))
	m.add("vm.backed_pages", med(func(rp *moduleTimes) float64 { return float64(rp.backedPages) }))
}
