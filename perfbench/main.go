// Command perfbench is the repository's benchmark. It drives the simulator
// through its public entry points on one workload, checks every output,
// and prints each metric by name with its unit. The last line of standard
// output is one JSON object with the keys correct, attempted, failed and
// metrics: every end-to-end metric for an untraced run (-trace 0), every
// per-layer metric for a traced one (-trace 1). README.md says why each
// workload exists and which end-to-end metric each layer metric should
// move.
//
//	bash perfbench/run.sh --workload mmu-small --seed 7 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"gpummu/internal/workloads"
)

// options are one invocation's settings.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration // how long the timed phase measures
	trace    bool
	workdir  string // scratch space inside the checkout
	size     sizing
}

// sizing holds the dimensions of the workloads. Every run uses fullSizing;
// tests shrink it to smoke-test each workload in seconds.
type sizing struct {
	figures        []string       // figure IDs of figures-all-tiny; nil means all
	warmupFigures  []string       // figure IDs of its warm-up passes
	figuresWarmups int            // warm-up passes before the timed ones
	mmuSize        workloads.Size // dataset size of mmu-small's timed passes
	serviceMinJobs int            // successful jobs per class, so 10 lie beyond each p90
	serviceSeeds   int            // keys completed before the timed phase
}

var fullSizing = sizing{
	warmupFigures:  []string{"fig2"},
	figuresWarmups: 5,
	mmuSize:        workloads.SizeSmall,
	serviceMinJobs: 100,
	serviceSeeds:   36, // 2 per (paper workload, MMU class)
}

// outcome is what a workload measured and checked.
type outcome struct {
	attempted, failed int
	e2e, layers       metrics
	digest            string
	notes             []string // human-readable lines printed before the result
	failures          []string // the first few failed checks
}

// failf counts one failed operation and keeps its description.
func (o *outcome) failf(format string, args ...any) {
	o.failed++
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// benches maps each workload name to the function that runs it.
var benches = map[string]func(options, *recorder) (*outcome, error){
	"figures-all-tiny": runFigures,
	"mmu-small":        runMMU,
	"service-mixed":    runService,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: figures-all-tiny, mmu-small or service-mixed")
	seed := fs.Uint64("seed", 1, "seed every input is derived from")
	seconds := fs.Float64("seconds", 30, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "perfbench"), "directory for temporary state, spans and the last untraced result")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	_, ok := benches[*workload]
	if !ok || fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload (figures-all-tiny|mmu-small|service-mixed), -seconds > 0 and -trace 0|1\n")
		return 2
	}
	opt := options{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		workdir:  *workdir,
		size:     fullSizing,
	}
	return runWith(opt, stdout, stderr)
}

// runWith measures one workload and prints its result.
func runWith(opt options, stdout, stderr io.Writer) int {
	bench := benches[opt.workload]
	if err := os.MkdirAll(opt.workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	prov, _ := json.Marshal(provenance(opt))
	fmt.Fprintf(stdout, "# provenance %s\n", prov)
	rec := newRecorder(opt.trace)
	out, err := bench(opt, rec)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", opt.workload, err)
		return 1
	}
	out.e2e.add("peak_rss_mb", peakRSSMB())

	for _, n := range out.notes {
		fmt.Fprintf(stdout, "# %s\n", n)
	}
	for _, f := range out.failures {
		fmt.Fprintf(stdout, "# FAILED %s\n", f)
	}
	fmt.Fprintf(stdout, "# digest %s %s\n", opt.workload, out.digest)

	for _, name := range endToEnd {
		if !out.e2e.has(name) {
			fmt.Fprintf(stderr, "perfbench: %s measured no %s\n", opt.workload, name)
			return 1
		}
	}
	// A layer that is not on a workload's path reports 0, so every traced
	// run prints every per-layer metric.
	var absent []string
	for _, name := range perLayer() {
		if opt.trace && !out.layers.has(name) {
			out.layers.add(name, 0)
			absent = append(absent, name)
		}
	}
	if len(absent) > 0 {
		fmt.Fprintf(stdout, "# not on this workload's path, reported as 0: %s\n", strings.Join(absent, " "))
	}

	report := out.e2e
	if opt.trace {
		report = out.layers
		path := filepath.Join(opt.workdir, fmt.Sprintf("spans-%s-seed%d.json", opt.workload, opt.seed))
		if err := rec.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "# spans written to %s\n", path)
		for _, line := range overhead(opt, out.e2e) {
			fmt.Fprintf(stdout, "# %s\n", line)
		}
	} else if err := saveUntraced(opt, out.e2e); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, m := range report {
		fmt.Fprintf(stdout, "metric %s %.6g %s\n", m.Name, m.Value, units[m.Name])
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]value{},
	}
	for _, m := range report {
		res.Metrics[m.Name] = value{m.Value, units[m.Name]}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// provenanceInfo says which code, host and settings produced a result.
type provenanceInfo struct {
	GitSHA     string  `json:"git_sha"`
	Dirty      bool    `json:"dirty"`
	HostCPUs   int     `json:"host_cpus"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	Started    string  `json:"started"`
}

func provenance(opt options) provenanceInfo {
	sha, dirty := gitState()
	return provenanceInfo{
		GitSHA:     sha,
		Dirty:      dirty,
		HostCPUs:   runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Workload:   opt.workload,
		Seed:       opt.seed,
		Seconds:    opt.seconds.Seconds(),
		Traced:     opt.trace,
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
}

// gitState returns the checkout's commit and whether its tracked files
// differ from it, or "unknown" outside a git repository. The search for a
// repository stops at the working directory.
func gitState() (sha string, dirty bool) {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown", false
	}
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	sha, err = git("rev-parse", "HEAD")
	if err != nil || sha == "" {
		return "unknown", false
	}
	status, err := git("status", "--porcelain", "--untracked-files=no")
	return sha, err != nil || status != ""
}

// untracedRecord is the last untraced result of a workload, kept so a
// traced run can report what tracing cost.
type untracedRecord struct {
	Seed    uint64             `json:"seed"`
	Metrics map[string]float64 `json:"metrics"`
}

func untracedPath(opt options) string {
	return filepath.Join(opt.workdir, "last-untraced-"+opt.workload+".json")
}

func saveUntraced(opt options, m metrics) error {
	rec := untracedRecord{Seed: opt.seed, Metrics: map[string]float64{}}
	for _, x := range m {
		rec.Metrics[x.Name] = x.Value
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return os.WriteFile(untracedPath(opt), data, 0o644)
}

// overhead compares the traced run's end-to-end numbers with the last
// untraced run of the same workload in this checkout.
func overhead(opt options, traced metrics) []string {
	data, err := os.ReadFile(untracedPath(opt))
	var last untracedRecord
	if err == nil {
		err = json.Unmarshal(data, &last)
	}
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			err = errors.New("no untraced run of this workload yet")
		}
		lines := []string{fmt.Sprintf("tracing overhead: unknown (%v); traced end-to-end values follow", err)}
		for _, m := range traced {
			lines = append(lines, fmt.Sprintf("traced %s %.6g %s", m.Name, m.Value, units[m.Name]))
		}
		return lines
	}
	var lines []string
	for _, m := range traced {
		base, ok := last.Metrics[m.Name]
		if !ok || base == 0 {
			continue
		}
		lines = append(lines, fmt.Sprintf("tracing overhead %s: traced %.6g untraced %.6g %s (%+.1f%%, untraced seed %d)",
			m.Name, m.Value, base, units[m.Name], 100*(m.Value-base)/base, last.Seed))
	}
	return lines
}
