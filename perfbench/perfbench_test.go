package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"gpummu/internal/service"
	"gpummu/internal/workloads"
)

func TestTopPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := topPercentile(c.n); got != c.want {
			t.Errorf("topPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	for q, want := range map[float64]float64{0.5: 50, 0.9: 90, 0.95: 95, 1: 100, 0.001: 1} {
		if got := percentile(xs, q); got != want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", q, got, want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %g, want 0", got)
	}
}

func TestModuleOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mapaccess1_fast64", "gpummu/internal/vm.(*PhysMem).page", "gpummu/internal/vm.(*PhysMem).Read64", "gpummu/internal/gpu.(*GPU).Run"}, "vm"},
		{[]string{"runtime.mallocgc", "gpummu/internal/gpu.countLanes", "gpummu/internal/core.(*MMU).prune"}, "gpu"},
		{[]string{"gpummu/internal/service.(*Server).handleEvents.func1", "net/http.HandlerFunc.ServeHTTP"}, "service"},
		{[]string{"gpummu/internal/stats.(*Hist).Merge[...]"}, "stats"},
		{[]string{"gpummu/internal/engine/sub.F"}, "engine"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.sweepone", "runtime.bgsweep"}, "gc"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.schedule"}, "runtime"},
		{[]string{"main.run", "main.main"}, "runtime"},
		{[]string{"gpummu.Run", "main.main"}, "runtime"},
		{nil, "runtime"},
	} {
		if got := moduleOf(c.stack); got != c.want {
			t.Errorf("moduleOf(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestBucketSplitsByLabel(t *testing.T) {
	samples := []profileSample{
		{stack: []string{"gpummu/internal/gpu.f"}, labels: map[string]string{"mmu": "naive"}, count: 3},
		{stack: []string{"gpummu/internal/core.f"}, labels: map[string]string{"mmu": "naive"}, count: 1},
		{stack: []string{"gpummu/internal/vm.f"}, labels: map[string]string{"mmu": "none"}, count: 2},
		{stack: []string{"runtime.gcBgMarkWorker"}, count: 2},
	}
	s := bucket(samples, "mmu")
	if s.total != 8 || s.share("gpu") != 3.0/8 || s.share("gc") != 2.0/8 {
		t.Errorf("overall: total %d gpu %g gc %g", s.total, s.share("gpu"), s.share("gc"))
	}
	naive := s.byLabel["naive"]
	if naive == nil || naive.total != 4 || naive.share("gpu")+naive.share("core") != 1 {
		t.Errorf("naive class: %+v", naive)
	}
	if none := s.byLabel["none"]; none == nil || none.share("vm") != 1 {
		t.Errorf("none class: %+v", none)
	}
}

//go:noinline
func spinForProfile(d time.Duration) int {
	x := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	return x
}

func TestParseProfileOfThisProcess(t *testing.T) {
	p, err := startProfiler()
	if err != nil {
		t.Skip(err) // another profile is running
	}
	pprof.Do(context.Background(), pprof.Labels("mmu", "spin"), func(context.Context) {
		spinForProfile(300 * time.Millisecond)
	})
	samples, err := p.stop()
	if err != nil {
		t.Fatal(err)
	}
	var total, spin int64
	for _, s := range samples {
		total += s.count
		if s.labels["mmu"] == "spin" && strings.Contains(strings.Join(s.stack, " "), "spinForProfile") {
			spin += s.count
		}
	}
	if total == 0 || spin == 0 {
		t.Fatalf("decoded %d samples, %d in the labelled spin loop", total, spin)
	}
}

func TestAwaitTerminal(t *testing.T) {
	state := func(st string) string {
		b, _ := json.Marshal(service.Job{ID: "j1", State: st, Total: 1, Simulated: 1})
		return "event: state\ndata: " + string(b) + "\n\n"
	}
	progress := "event: progress\ndata: {\"source\":\"bfs\",\"cycle\":10}\n\n"

	j, err := awaitTerminal(strings.NewReader(state("pending") + progress + state("running") + progress + state("done")))
	if err != nil || j.State != service.StateDone || j.ID != "j1" || j.Simulated != 1 {
		t.Fatalf("done stream: %+v, %v", j, err)
	}
	crlf := strings.ReplaceAll(state("running")+state("failed"), "\n", "\r\n")
	if j, err := awaitTerminal(strings.NewReader(crlf)); err != nil || j.State != service.StateFailed {
		t.Fatalf("CRLF stream: %+v, %v", j, err)
	}
	for name, stream := range map[string]string{
		"no terminal state":   state("pending") + progress,
		"empty":               "",
		"unterminated event":  strings.TrimSuffix(state("done"), "\n"),
		"progress says done":  "event: progress\ndata: {\"state\":\"done\"}\n\n",
		"stream cut mid-data": "event: state\ndata: {\"id\":",
	} {
		if j, err := awaitTerminal(strings.NewReader(stream)); err == nil {
			t.Errorf("%s: got %+v, want an error", name, j)
		}
	}
}

func TestDerive(t *testing.T) {
	if derive(7, "a") != derive(7, "a") {
		t.Fatal("derive is not deterministic")
	}
	seen := map[uint64]bool{}
	for s := uint64(0); s < 100; s++ {
		for _, name := range []string{"a", "b", "mmu-small"} {
			v := derive(s, name)
			if v == 0 || seen[v] {
				t.Fatalf("derive(%d, %q) = %d: zero or repeated", s, name, v)
			}
			seen[v] = true
		}
	}
}

func TestServiceOpsAreSeeded(t *testing.T) {
	ops := serviceOps{seed: 3, keys: seedKeys(3, 36)}
	again := serviceOps{seed: 3, keys: seedKeys(3, 36)}
	other := serviceOps{seed: 4, keys: seedKeys(4, 36)}
	repeats, differ := 0, 0
	const n = 1008 // 28 blocks of 18 fresh jobs
	mix := map[jobKey]int{}
	for i := 0; i < n; i++ {
		op := ops.op(i)
		if i%2 == 1 && op.repeat == ops.op(i-1).repeat {
			t.Fatalf("ops %d and %d are both fresh or both repeats", i-1, i)
		}
		if !op.repeat {
			mix[jobKey{workload: op.key.workload, class: op.key.class}]++
		}
		if op != again.op(i) {
			t.Fatalf("op %d differs for the same seed", i)
		}
		if op != other.op(i) {
			differ++
		}
		if op.repeat {
			repeats++
			found := false
			for _, k := range ops.keys {
				found = found || k == op.key
			}
			if !found {
				t.Fatalf("repeat op %d resubmits %+v, not a seeding key", i, op.key)
			}
		}
	}
	if repeats != n/2 {
		t.Errorf("%d of %d ops repeat a key, want half", repeats, n)
	}
	if len(mix) != len(workloads.PaperSet())*len(mmuClasses) {
		t.Errorf("fresh jobs cover %d (workload, class) pairs", len(mix))
	}
	for k, c := range mix {
		if c != 28 {
			t.Errorf("fresh jobs run %s/%s %d times, want 28", k.workload, k.class, c)
		}
	}
	if differ < n/2 {
		t.Errorf("only %d of %d ops change with the seed", differ, n)
	}
}

// benchmarkJSON is the part of BENCHMARK.json the program must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b := readBenchmarkJSON(t)
	declared := map[string]bool{}
	for _, m := range b.EndToEnd {
		if units[m.Name] != m.Unit || !isEndToEnd(m.Name) {
			t.Errorf("end-to-end %s %s: program has unit %q, end to end %v", m.Name, m.Unit, units[m.Name], isEndToEnd(m.Name))
		}
		declared[m.Name] = true
	}
	for _, m := range b.PerLayer {
		if units[m.Name] != m.Unit || isEndToEnd(m.Name) {
			t.Errorf("per-layer %s %s: program has unit %q, end to end %v", m.Name, m.Unit, units[m.Name], isEndToEnd(m.Name))
		}
		declared[m.Name] = true
	}
	for name := range units {
		if !declared[name] {
			t.Errorf("metric %s is not in BENCHMARK.json", name)
		}
	}
	if len(b.Workloads) != len(benches) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(benches))
	}
	for _, w := range b.Workloads {
		if benches[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
}

// smoke shrinks every workload so a run takes a few seconds.
var smoke = sizing{
	figures:        []string{"fig2"},
	warmupFigures:  []string{"fig2"},
	figuresWarmups: 1,
	mmuSize:        workloads.SizeTiny,
	serviceMinJobs: 5,
	serviceSeeds:   6,
}

// measured lists, per workload, per-layer metrics its traced run must
// measure rather than report as 0 for a layer off its path.
var measured = map[string][]string{
	"figures-all-tiny": {"experiments.plan_ms", "experiments.pool_busy_share", "workloads.build_ms", "gpu.run_naive_s", "vm.backed_pages", "store.put_ms_p50", "gpu.cycles"},
	"mmu-small":        {"gpu.run_none_s", "gpu.run_naive_s", "gpu.run_augmented_s", "core.tlb_hit_rate", "mem.walk_cache_hits", "experiments.spec_p90_ms", "store.get_ms_p50", "core.walks"},
	"service-mixed":    {"service.job_fresh_p50_ms", "service.job_repeat_p90_ms", "service.events_ms_p50", "store.open_ms", "gpu.instructions", "gpu.run_augmented_s", "workloads.build_ms", "service.simulated"},
}

func TestSmokeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take a few seconds each")
	}
	dir := t.TempDir()
	for _, w := range []string{"figures-all-tiny", "mmu-small", "service-mixed"} {
		for trace := 0; trace < 2; trace++ {
			opt := options{workload: w, seed: 5, seconds: time.Second / 2, trace: trace == 1, workdir: dir, size: smoke}
			var stdout, stderr bytes.Buffer
			if code := runWith(opt, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace %d: exit %d: %s", w, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %d: last line: %v\n%s", w, trace, err, stdout.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace %d: correct %v, %d of %d failed\n%s", w, trace, res.Correct, res.Failed, res.Attempted, stdout.String())
			}
			want, nonzero := endToEnd, endToEnd
			if trace == 1 {
				want, nonzero = perLayer(), measured[w]
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			for _, name := range want {
				if m, ok := res.Metrics[name]; !ok || m.Unit != units[name] {
					t.Errorf("%s trace %d: no %s in %s", w, trace, name, units[name])
				}
			}
			for _, name := range nonzero {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s trace %d: %s = %g, want > 0", w, trace, name, res.Metrics[name].Value)
				}
			}
			if !strings.Contains(stdout.String(), "# digest "+w+" sha256:") {
				t.Errorf("%s trace %d: no digest line", w, trace)
			}
		}
	}
}
