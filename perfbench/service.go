package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"gpummu/internal/campaign"
	"gpummu/internal/config"
	"gpummu/internal/experiments"
	"gpummu/internal/service"
	"gpummu/internal/workloads"
)

// service-mixed serves gpusimd in process: service.NewServer on a state
// directory (FileStore, default slots) over loopback HTTP. Two clients run
// a closed loop; each submits an ad-hoc job (one paper workload, tiny, the
// small machine, one MMU class), waits for its terminal state on the job's
// event stream and fetches the report. Half the jobs use keys never seen
// before (a simulation, a store write and a manifest entry), the other half
// resubmit a key completed while seeding (a store read). It is
// the only workload that reaches the service end to end; job latency is
// bound by the event handler's 100 ms state poll, not by simulation.

const (
	serviceClients  = 2
	serviceReopens  = 45 // set-ups measured; setup_s is their median
	serviceMaxTimed = 120 * time.Second
)

// jobKey identifies one ad-hoc job's simulation.
type jobKey struct {
	workload, class string
	seed            uint64
}

func (k jobKey) request() service.SubmitRequest {
	req := service.SubmitRequest{Workloads: []string{k.workload}, Size: "tiny", Seed: k.seed, Machine: "small"}
	if m := mmuFor(k.class); m.Enabled {
		req.Set = map[string]any{
			"mmu.enabled":         "true",
			"mmu.entries":         strconv.Itoa(m.Entries),
			"mmu.assoc":           strconv.Itoa(m.Assoc),
			"mmu.ports":           strconv.Itoa(m.Ports),
			"mmu.numptws":         strconv.Itoa(m.NumPTWs),
			"mmu.mshrs":           strconv.Itoa(m.MSHRs),
			"mmu.walkconcurrency": strconv.Itoa(m.WalkConcurrency),
			"mmu.hitsundermiss":   strconv.FormatBool(m.HitsUnderMiss),
			"mmu.cacheoverlap":    strconv.FormatBool(m.CacheOverlap),
			"mmu.ptwsched":        strconv.FormatBool(m.PTWSched),
		}
	}
	return req
}

// serviceOp is one job a client runs.
type serviceOp struct {
	key    jobKey
	repeat bool // resubmits a key completed while seeding
}

// serviceOps derives the timed phase's job sequence from the seed.
type serviceOps struct {
	seed uint64
	keys []jobKey // the seeding keys repeats draw from
}

// op returns the timed phase's i-th job. Jobs come in pairs, one fresh
// and one repeat in a seeded order, and the k-th fresh job takes its
// (paper workload, MMU class) from a seeded shuffle of all of them, one
// shuffle per len(paper) × len(mmuClasses) fresh jobs; so the job mix, and
// with it the simulated work, hardly varies with the seed.
func (o serviceOps) op(i int) serviceOp {
	v := derive(o.seed, "service-mixed/op/"+strconv.Itoa(i/2))
	if int(v&1) == i%2 {
		return serviceOp{key: o.keys[(v>>1)%uint64(len(o.keys))], repeat: true}
	}
	paper := workloads.PaperSet()
	n, k := len(paper)*len(mmuClasses), i/2
	c := permutation(derive(o.seed, "service-mixed/mix/"+strconv.Itoa(k/n)), n)[k%n]
	return serviceOp{key: jobKey{
		workload: paper[c%len(paper)],
		class:    mmuClasses[c/len(paper)],
		seed:     derive(o.seed, "service-mixed/fresh/"+strconv.Itoa(i)),
	}}
}

// permutation returns a seeded shuffle of 0..n-1.
func permutation(seed uint64, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(derive(seed, strconv.Itoa(i)) % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// seedKeys returns the keys completed before the timed phase.
func seedKeys(seed uint64, n int) []jobKey {
	paper := workloads.PaperSet()
	keys := make([]jobKey, n)
	for i := range keys {
		keys[i] = jobKey{
			workload: paper[i%len(paper)],
			class:    mmuClasses[(i/len(paper))%len(mmuClasses)],
			seed:     derive(seed, "service-mixed/seeding/"+strconv.Itoa(i)),
		}
	}
	return keys
}

// liveServer is an in-process gpusimd serving on loopback.
type liveServer struct {
	srv    *service.Server
	hs     *http.Server
	base   string
	served chan error
	client *service.Client
	tr     *http.Transport
}

func startServer(dir string) (*liveServer, error) {
	srv, err := service.NewServer(service.Options{Dir: dir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	// Each client holds at most one connection at a time; the cap keeps the
	// loop within nproc connections.
	tr := &http.Transport{MaxConnsPerHost: runtime.NumCPU(), MaxIdleConnsPerHost: runtime.NumCPU()}
	ls := &liveServer{
		srv:    srv,
		hs:     &http.Server{Handler: srv},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		tr:     tr,
	}
	ls.client = &service.Client{Base: ls.base, HTTP: &http.Client{Transport: tr}}
	go func() { ls.served <- ls.hs.Serve(ln) }()
	return ls, nil
}

// healthy blocks until /v1/healthz answers 200.
func (ls *liveServer) healthy() error {
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := ls.client.HTTP.Get(ls.base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the listener down, waits for it, and closes the server.
func (ls *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := ls.hs.Shutdown(ctx)
	<-ls.served
	ls.tr.CloseIdleConnections()
	if cerr := ls.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// jobResult is one job as a client saw it.
type jobResult struct {
	op                            serviceOp
	submit, events, report, total time.Duration
	job                           *service.Job // the terminal state event
	body                          []byte
	err                           error
}

// runJob submits op, waits on the job's event stream for its terminal
// state and fetches the report.
func (ls *liveServer) runJob(rec *recorder, op serviceOp) *jobResult {
	r := &jobResult{op: op}
	root := rec.begin("job", 0, 0)
	defer func() { r.total = rec.end(root) }()

	sp := rec.begin("service.Submit", root.Trace, root.ID)
	job, err := ls.client.Submit(op.key.request())
	r.submit = rec.end(sp)
	if err != nil {
		r.err = err
		return r
	}

	sp = rec.begin("service.events", root.Trace, root.ID)
	r.job, r.err = ls.await(job.ID)
	r.events = rec.end(sp)
	if r.err != nil {
		return r
	}
	if r.job.State != service.StateDone {
		r.err = fmt.Errorf("job %s ended %s: %s", job.ID, r.job.State, r.job.Error)
		return r
	}

	sp = rec.begin("service.Report", root.Trace, root.ID)
	r.body, r.err = ls.client.Report(job.ID)
	r.report = rec.end(sp)
	return r
}

func (ls *liveServer) await(id string) (*service.Job, error) {
	resp, err := ls.client.HTTP.Get(ls.base + "/v1/jobs/" + url.PathEscape(id) + "/events")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("events: %s", resp.Status)
	}
	j, err := awaitTerminal(resp.Body)
	io.Copy(io.Discard, resp.Body) // the server ends the stream; drain it so the connection is reused
	return j, err
}

// closedLoop runs clients goroutines that each take the next op and run it
// as a job, until next reports no more. next is called with the jobs done
// so far, under a lock.
func closedLoop(clients int, next func(done []*jobResult) (serviceOp, bool), do func(serviceOp) *jobResult) []*jobResult {
	var mu sync.Mutex
	var done []*jobResult
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				op, ok := next(done)
				mu.Unlock()
				if !ok {
					return
				}
				r := do(op)
				mu.Lock()
				done = append(done, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return done
}

// healthSampler reads /v1/healthz through the in-process handler every
// few milliseconds until stopped.
type healthSampler struct {
	stopc        chan struct{}
	done         chan struct{}
	busy, queued []float64
}

func sampleHealth(srv *service.Server) *healthSampler {
	h := &healthSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stopc:
				return
			case <-t.C:
			}
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
			var st struct {
				Queued    int `json:"queued"`
				Scheduler struct {
					BusySlots int `json:"busySlots"`
				} `json:"scheduler"`
			}
			if json.Unmarshal(w.Body.Bytes(), &st) == nil {
				h.busy = append(h.busy, float64(st.Scheduler.BusySlots))
				h.queued = append(h.queued, float64(st.Queued))
			}
		}
	}()
	return h
}

func (h *healthSampler) stop() {
	close(h.stopc)
	<-h.done
}

func runService(opt options, rec *recorder) (*outcome, error) {
	out := &outcome{}
	tmp := filepath.Join(opt.workdir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, "service-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	state := filepath.Join(dir, "state")

	// Seeding, untimed: complete the keys repeats will resubmit and keep
	// each one's report as the reference.
	keys := seedKeys(opt.seed, opt.size.serviceSeeds)
	ls, err := startServer(state)
	if err != nil {
		return nil, err
	}
	i := 0
	seeded := closedLoop(serviceClients, func([]*jobResult) (serviceOp, bool) {
		if i == len(keys) {
			return serviceOp{}, false
		}
		i++
		return serviceOp{key: keys[i-1]}, true
	}, func(op serviceOp) *jobResult { return ls.runJob(rec, op) })
	seededEnvs, err := ls.srv.Store().List()
	if err != nil {
		ls.stop()
		return nil, err
	}
	if err := ls.stop(); err != nil {
		return nil, err
	}
	refs := map[jobKey][]byte{}
	for _, r := range seeded {
		checkJob(out, r, nil)
		refs[r.op.key] = r.body
	}

	// Set-up: reopen the server on the seeded state (store and manifest
	// replay) until /v1/healthz answers, several times.
	var setup []float64
	for n := 0; n < serviceReopens; n++ {
		if n > 0 {
			if err := ls.stop(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if ls, err = startServer(state); err != nil {
			return nil, err
		}
		if err := ls.healthy(); err != nil {
			ls.stop()
			return nil, err
		}
		setup = append(setup, time.Since(start).Seconds())
	}

	ops := serviceOps{seed: opt.seed, keys: keys}
	next := 0
	var jobs []*jobResult
	var elapsed time.Duration
	var health *healthSampler
	shares, err := profiled(opt.trace, "", func() {
		if opt.trace {
			health = sampleHealth(ls.srv)
			defer health.stop()
		}
		start := time.Now()
		jobs = closedLoop(serviceClients, func(done []*jobResult) (serviceOp, bool) {
			elapsed := time.Since(start)
			fresh, repeat := 0, 0
			for _, r := range done {
				if r.op.repeat {
					repeat++
				} else {
					fresh++
				}
			}
			enough := elapsed >= opt.seconds && fresh >= opt.size.serviceMinJobs && repeat >= opt.size.serviceMinJobs
			if enough || elapsed >= serviceMaxTimed {
				return serviceOp{}, false
			}
			next++
			return ops.op(next - 1), true
		}, func(op serviceOp) *jobResult { return ls.runJob(rec, op) })
		elapsed = time.Since(start)
	})
	if err != nil {
		ls.stop()
		return nil, err
	}

	var jobMS, freshMS, repeatMS, submitMS, eventsMS, reportMS []float64
	var simulated, fromStore, coalesced, total int
	for _, r := range jobs {
		if !checkJob(out, r, refs) {
			continue
		}
		jobMS = append(jobMS, ms(r.total))
		if r.op.repeat {
			repeatMS = append(repeatMS, ms(r.total))
		} else {
			freshMS = append(freshMS, ms(r.total))
		}
		submitMS = append(submitMS, ms(r.submit))
		eventsMS = append(eventsMS, ms(r.events))
		reportMS = append(reportMS, ms(r.report))
		simulated += r.job.Simulated
		fromStore += r.job.FromStore
		coalesced += r.job.Coalesced
		total += r.job.Total
	}

	envs, err := ls.srv.Store().List()
	if err != nil {
		ls.stop()
		return nil, err
	}
	d := digest{}
	for _, e := range envs {
		b, err := json.Marshal(e.Stats)
		if err != nil {
			ls.stop()
			return nil, err
		}
		d[e.Key] = b
	}
	out.digest = d.sum()
	if err := ls.stop(); err != nil {
		return nil, err
	}

	// The envelopes stored during the timed phase are the fresh jobs'
	// simulations; a failed run is never stored.
	seededKeys := map[string]bool{}
	for _, e := range seededEnvs {
		seededKeys[e.Key] = true
	}
	var timedEnvs []*service.Result
	var instr uint64
	for _, e := range envs {
		if !seededKeys[e.Key] {
			timedEnvs = append(timedEnvs, e)
			instr += uint64(e.Stats.Instructions)
		}
	}

	out.e2e.add("setup_s", median(setup))
	out.e2e.add("sim_instr_per_s", ratio(float64(instr), elapsed.Seconds()))
	addJobs(&out.e2e, jobMS, elapsed)
	out.notef("service-mixed: %d clients, %d seeding jobs, %d timed jobs in %.3fs, %d set-ups (median %.3fms)",
		serviceClients, len(seeded), len(jobs), elapsed.Seconds(), len(setup), 1000*median(setup))
	out.notef("job fresh: %s", summary(freshMS))
	out.notef("job repeat: %s", summary(repeatMS))
	if len(freshMS) < opt.size.serviceMinJobs || len(repeatMS) < opt.size.serviceMinJobs {
		out.notef("fewer than %d successful jobs in a class", opt.size.serviceMinJobs)
	}
	if !opt.trace {
		return out, nil
	}

	out.layers.add("service.job_fresh_p50_ms", percentile(freshMS, 0.5))
	out.layers.add("service.job_fresh_p90_ms", percentile(freshMS, 0.9))
	out.layers.add("service.job_repeat_p50_ms", percentile(repeatMS, 0.5))
	out.layers.add("service.job_repeat_p90_ms", percentile(repeatMS, 0.9))
	out.layers.add("service.events_ms_p50", median(eventsMS))
	out.layers.add("service.submit_ms_p50", median(submitMS))
	out.layers.add("service.report_ms_p50", median(reportMS))
	out.layers.add("service.busy_slots_mean", mean(health.busy))
	out.layers.add("service.queued_mean", mean(health.queued))
	out.layers.add("service.simulated", float64(simulated))
	out.layers.add("service.from_store", float64(fromStore))
	out.layers.add("service.coalesced", float64(coalesced))
	out.layers.add("service.dedup_share", ratio(float64(fromStore+coalesced), float64(total)))
	out.notef("events: %s; submit: %s; report: %s", summary(eventsMS), summary(submitMS), summary(reportMS))

	if err := addStoreMetrics(out, opt.workdir, envs); err != nil {
		return nil, err
	}
	if err := replayJobs(out, rec, timedEnvs); err != nil {
		return nil, err
	}
	addShares(&out.layers, shares)
	out.notef("cpu: %s", shares.line())
	return out, nil
}

// checkJob counts one job and fails it unless it finished with reconciled
// counters, simulated exactly once when fresh, and, when it repeats a key,
// was served from the store with the fresh submission's report bytes.
// refs nil marks a fresh seeding job. It reports whether the job passed.
func checkJob(out *outcome, r *jobResult, refs map[jobKey][]byte) bool {
	out.attempted++
	j := r.job
	switch {
	case r.err != nil:
		out.failf("job %+v: %v", r.op.key, r.err)
	case j.Total != j.Simulated+j.FromStore+j.Coalesced:
		out.failf("job %s: total %d != simulated %d + from store %d + coalesced %d", j.ID, j.Total, j.Simulated, j.FromStore, j.Coalesced)
	case j.Failures != 0:
		out.failf("job %s: %d failed runs", j.ID, j.Failures)
	case len(r.body) == 0:
		out.failf("job %s: empty report", j.ID)
	case !r.op.repeat && (j.Total != 1 || j.Simulated != 1):
		out.failf("job %s: fresh key simulated %d of %d", j.ID, j.Simulated, j.Total)
	case r.op.repeat && (j.Total != 1 || j.FromStore != 1):
		out.failf("job %s: repeated key served %d of %d from the store", j.ID, j.FromStore, j.Total)
	case r.op.repeat && !bytes.Equal(r.body, refs[r.op.key]):
		out.failf("job %s: report differs from the key's fresh submission", j.ID)
	default:
		return true
	}
	return false
}

// replayJobs reports the simulation layers of the timed phase's fresh
// jobs. The server times only whole specs (the envelopes' wall times), so
// a serial replay of each spec through workloads.Build → gpu.New → Run →
// Check splits spec time by module; it must reproduce the server's
// statistics.
func replayJobs(out *outcome, rec *recorder, envs []*service.Result) error {
	// The machine of each MMU class as the server builds it from a job.
	machines := map[string]config.Hardware{}
	for _, c := range mmuClasses {
		req := jobKey{class: c}.request()
		camp, err := campaign.NewAdhoc("", []string{workloads.PaperSet()[0]}, req.Size, 1, req.Machine, req.Set, campaign.RunOptions{})
		if err != nil {
			return err
		}
		cfg, err := camp.MachineConfig()
		if err != nil {
			return err
		}
		machines[cfg.Key()] = cfg
	}

	var counts simCounts
	var walls []float64
	var rp moduleTimes
	for _, e := range envs {
		counts.add(e.Stats)
		walls = append(walls, e.WallMS)
		out.attempted++
		cfg, ok := machines[e.ConfigKey]
		if !ok {
			out.failf("replay %s: machine of no MMU class", e.Key)
			continue
		}
		r := runSpec(rec, span{}, experiments.RunSpec{Workload: e.Workload, Config: cfg}, workloads.SizeTiny, e.Seed, false)
		switch {
		case r.err != nil:
			out.failf("replay %s: %v", e.Key, r.err)
		case !sameStats(r.statsJSON, e.Stats):
			out.failf("replay %s: simulated stats differ from the server's", e.Key)
		default:
			rp.add(r)
		}
	}
	counts.addTo(&out.layers)
	out.layers.add("experiments.spec_p50_ms", percentile(walls, 0.5))
	out.layers.add("experiments.spec_p90_ms", percentile(walls, 0.9))
	out.layers.add("experiments.specs", float64(len(envs)))
	addModuleTimes(&out.layers, []*moduleTimes{&rp})
	out.notef("replay of %d fresh jobs' specs, serial: build %.1fms new %.1fms run %.3fs check %.1fms",
		len(envs), ms(rp.build), ms(rp.new), rp.runTotal().Seconds(), ms(rp.check))
	return nil
}

// addStoreMetrics reports the store layer's cost on a run's results: envs
// are written into a fresh FileStore in a temporary directory, which is
// reopened and read back.
func addStoreMetrics(out *outcome, workdir string, envs []*service.Result) error {
	tmp := filepath.Join(workdir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(tmp, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	open, puts, gets, err := replayStore(dir, envs)
	if err != nil {
		return err
	}
	out.layers.add("store.open_ms", ms(open))
	out.layers.add("store.put_ms_p50", median(durationsMS(puts)))
	out.layers.add("store.get_ms_p50", median(durationsMS(gets)))
	out.notef("store replay of %d envelopes: open %.3fms, put %s, get %s",
		len(envs), ms(open), summary(durationsMS(puts)), summary(durationsMS(gets)))
	return nil
}

// replayStore writes envs into a fresh FileStore in dir, reopens it (the
// replay a restart pays) and reads every key back, timing each call.
func replayStore(dir string, envs []*service.Result) (open time.Duration, puts, gets []time.Duration, err error) {
	fs, err := service.OpenFileStore(dir)
	if err != nil {
		return 0, nil, nil, err
	}
	for _, e := range envs {
		start := time.Now()
		if err := fs.Put(e); err != nil {
			fs.Close()
			return 0, nil, nil, err
		}
		puts = append(puts, time.Since(start))
	}
	if err := fs.Close(); err != nil {
		return 0, nil, nil, err
	}
	start := time.Now()
	if fs, err = service.OpenFileStore(dir); err != nil {
		return 0, nil, nil, err
	}
	open = time.Since(start)
	defer fs.Close()
	for _, e := range envs {
		start := time.Now()
		_, ok, err := fs.Get(e.Key)
		if err != nil {
			return 0, nil, nil, err
		}
		if !ok {
			return 0, nil, nil, fmt.Errorf("store replay lost %s", e.Key)
		}
		gets = append(gets, time.Since(start))
	}
	return open, puts, gets, nil
}
