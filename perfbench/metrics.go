package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"syscall"
	"time"
)

// units gives every metric the benchmark prints its unit. The names and
// units are the benchmark's contract with BENCHMARK.json (a test keeps the
// two in step); later changes are judged by them, so they never change.
var units = map[string]string{
	// End to end. A job is one simulation request as its user makes it: a
	// spec of the figure pipeline, one gpusim-style run, one served job.
	"setup_s":         "s",
	"sim_instr_per_s": "1/s",
	"jobs_per_s":      "1/s",
	"job_p50_ms":      "ms",
	"job_p90_ms":      "ms",
	"peak_rss_mb":     "MB",

	// experiments
	"experiments.plan_ms":         "ms",
	"experiments.execute_s":       "s",
	"experiments.render_ms":       "ms",
	"experiments.spec_p50_ms":     "ms",
	"experiments.spec_p90_ms":     "ms",
	"experiments.pool_busy_share": "fraction",
	"experiments.specs":           "count",

	// workloads
	"workloads.build_ms": "ms",
	"workloads.check_ms": "ms",

	// gpu
	"gpu.new_ms":            "ms",
	"gpu.run_none_s":        "s",
	"gpu.run_naive_s":       "s",
	"gpu.run_augmented_s":   "s",
	"gpu.host_ns_per_cycle": "ns",
	"gpu.cycles":            "count",
	"gpu.instructions":      "count",
	"gpu.mem_instrs":        "count",
	"gpu.idle_core_cycles":  "count",

	// core
	"core.tlb_accesses":        "count",
	"core.tlb_hit_rate":        "fraction",
	"core.walks":               "count",
	"core.walk_refs":           "count",
	"core.walk_refs_coalesced": "count",

	// mem
	"mem.l1_accesses":     "count",
	"mem.l1_hit_rate":     "fraction",
	"mem.l2_accesses":     "count",
	"mem.l2_hit_rate":     "fraction",
	"mem.walk_cache_hits": "count",

	// vm
	"vm.backed_pages": "count",

	// service
	"service.job_fresh_p50_ms":  "ms",
	"service.job_fresh_p90_ms":  "ms",
	"service.job_repeat_p50_ms": "ms",
	"service.job_repeat_p90_ms": "ms",
	"service.events_ms_p50":     "ms",
	"service.submit_ms_p50":     "ms",
	"service.report_ms_p50":     "ms",
	"service.busy_slots_mean":   "slots",
	"service.queued_mean":       "jobs",
	"service.simulated":         "count",
	"service.from_store":        "count",
	"service.coalesced":         "count",
	"service.dedup_share":       "fraction",

	// store
	"store.open_ms":    "ms",
	"store.put_ms_p50": "ms",
	"store.get_ms_p50": "ms",

	// CPU profile shares, one per module plus GC and other runtime work.
	"cpu.experiments_share": "fraction",
	"cpu.workloads_share":   "fraction",
	"cpu.gpu_share":         "fraction",
	"cpu.core_share":        "fraction",
	"cpu.mem_share":         "fraction",
	"cpu.engine_share":      "fraction",
	"cpu.vm_share":          "fraction",
	"cpu.stats_share":       "fraction",
	"cpu.service_share":     "fraction",
	"cpu.gc_share":          "fraction",
	"cpu.runtime_share":     "fraction",
}

// endToEnd are the metrics a user of the system sees. Every untraced run
// of every workload prints all of them; every traced run prints all the
// other metrics of units, the per-layer ones.
var endToEnd = []string{"setup_s", "sim_instr_per_s", "jobs_per_s", "job_p50_ms", "job_p90_ms", "peak_rss_mb"}

func isEndToEnd(name string) bool {
	for _, n := range endToEnd {
		if n == name {
			return true
		}
	}
	return false
}

// perLayer returns the per-layer metric names, sorted.
func perLayer() []string {
	var names []string
	for n := range units {
		if !isEndToEnd(n) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// metric is one named measurement.
type metric struct {
	Name  string
	Value float64
}

// metrics collects a run's measurements in the order they were added.
type metrics []metric

func (m *metrics) add(name string, v float64) {
	if _, ok := units[name]; !ok {
		panic("perfbench: metric without a unit: " + name)
	}
	*m = append(*m, metric{name, v})
}

// has reports whether m holds a metric called name.
func (m metrics) has(name string) bool {
	for _, x := range m {
		if x.Name == name {
			return true
		}
	}
	return false
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// mean returns the average of xs, or 0 when empty.
func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// durationsMS converts durations to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// tailPercentiles are the candidates for a timing's reported tail.
var tailPercentiles = []float64{50, 90, 95, 99, 99.9}

// topPercentile returns the highest tail percentile that has at least
// minBeyond of the n samples above it, or 0 when none has.
func topPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= minBeyond-1e-9 {
			best = p
		}
	}
	return best
}

// summary describes a timing as its median, its top percentile and the
// sample count, e.g. "n=212 p50=101.2ms p95=104.9ms".
func summary(xs []float64) string {
	s := fmt.Sprintf("n=%d p50=%.3fms", len(xs), median(xs))
	if p := topPercentile(len(xs)); p > 50 {
		s += fmt.Sprintf(" p%g=%.3fms", p, percentile(xs, p/100))
	}
	return s
}

// derive returns a seed for one named input stream of the benchmark seed
// (splitmix64 over the seed and an FNV-1a hash of the name). It is never 0,
// which the program would read as "use the default seed".
func derive(seed uint64, name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	z := seed ^ h
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// span is one timed call into a module. Spans of one pass or job share a
// Trace; Parent is the span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`

	start time.Time
}

// recorder hands out spans and, when on, keeps the finished ones in memory
// until the run writes them out. Off, it still times every span, so traced
// and untraced runs compute their numbers the same way.
type recorder struct {
	on bool
	t0 time.Time

	mu    sync.Mutex
	next  int64
	spans []span
}

func newRecorder(on bool) *recorder { return &recorder{on: on, t0: time.Now()} }

// begin starts a span; trace 0 makes the span the root of a new trace.
func (r *recorder) begin(name string, trace, parent int64) span {
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	if trace == 0 {
		trace = id
	}
	return span{ID: id, Parent: parent, Trace: trace, Name: name, start: time.Now()}
}

// end finishes s and returns its duration.
func (r *recorder) end(s span) time.Duration {
	now := time.Now()
	d := now.Sub(s.start)
	if r.on {
		s.Start = s.start.Sub(r.t0).Nanoseconds()
		s.End = now.Sub(r.t0).Nanoseconds()
		r.mu.Lock()
		r.spans = append(r.spans, s)
		r.mu.Unlock()
	}
	return d
}

// write stores the recorded spans as a JSON array.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	sort.Slice(r.spans, func(i, j int) bool { return r.spans[i].ID < r.spans[j].ID })
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
