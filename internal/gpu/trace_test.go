package gpu

import (
	"errors"
	"strings"
	"testing"

	"gpummu/internal/config"
	"gpummu/internal/engine"
	"gpummu/internal/obs"
	"gpummu/internal/stats"
	"gpummu/internal/workloads"
)

func TestRingTracerRetainsTail(t *testing.T) {
	r := NewRingTracer(3)
	for i := 0; i < 5; i++ {
		r.Trace(Event{Cycle: engine.Cycle(i), Kind: EvIssue})
	}
	if r.Total() != 5 {
		t.Fatalf("total = %d", r.Total())
	}
	ev := r.Events()
	if len(ev) != 3 {
		t.Fatalf("retained %d", len(ev))
	}
	for i, e := range ev {
		if int(e.Cycle) != i+2 {
			t.Fatalf("event %d has cycle %d", i, e.Cycle)
		}
	}
}

func TestTracerCapturesRun(t *testing.T) {
	cfg := config.SmallTest()
	cfg.MMU = config.AugmentedMMU()
	cfg.TBC.Mode = config.DivTBC
	w, err := workloads.Build("bfs", workloads.SizeTiny, cfg.PageShift, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := &stats.Sim{}
	g, err := New(cfg, w.AS, st)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewRingTracer(4096)
	g.SetTracer(tr)
	if _, err := g.Run(w.Launch); err != nil {
		t.Fatal(err)
	}
	kinds := map[EventKind]int{}
	for _, e := range tr.Events() {
		kinds[e.Kind]++
	}
	for _, k := range []EventKind{EvIssue, EvTLBMiss, EvCompact} {
		if kinds[k] == 0 {
			t.Errorf("no %v events traced", k)
		}
	}
	var sb strings.Builder
	if err := tr.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "issue") {
		t.Fatal("dump missing issue lines")
	}
}

func TestFilterTracer(t *testing.T) {
	ring := NewRingTracer(16)
	f := &FilterTracer{Next: ring, Keep: map[EventKind]bool{EvBarrier: true}}
	f.Trace(Event{Kind: EvIssue})
	f.Trace(Event{Kind: EvBarrier})
	if ring.Total() != 1 || ring.Events()[0].Kind != EvBarrier {
		t.Fatalf("filter passed %d events", ring.Total())
	}
}

func TestWriterTracer(t *testing.T) {
	var sb strings.Builder
	wt := &WriterTracer{W: &sb}
	wt.Trace(Event{Cycle: 42, Kind: EvWalkDone, Warp: 3, A: 0x99, B: 7})
	if wt.Err() != nil {
		t.Fatal(wt.Err())
	}
	if !strings.Contains(sb.String(), "walkdone") || !strings.Contains(sb.String(), "0x99") {
		t.Fatalf("bad render: %q", sb.String())
	}
}

// issueCounter counts EvIssue events and records the gated replays still
// pending across the machine's cores at each one. Events drain in the serial
// commit phase, after every core's compute phase of that cycle, so the
// pending count read at an event is the cycle's settled state.
type issueCounter struct {
	g       *GPU
	issues  uint64
	pending uint64       // replays pending at the latest EvIssue
	firstAt engine.Cycle // first cycle with replays pending (0 = never)
}

func (ic *issueCounter) Trace(e Event) {
	if e.Kind != EvIssue {
		return
	}
	ic.issues++
	ic.pending = 0
	for _, c := range ic.g.cores {
		ic.pending += c.gateSteps
	}
	if ic.pending > 0 && ic.firstAt == 0 {
		ic.firstAt = e.Cycle
	}
}

// TestGatedReplayTraceConsistency pins the batched gated replay against the
// trace: every issue attempt emits one EvIssue, replayed ones included, so a
// naive-MMU run's EvIssue count must equal ActiveLanes.Count() once the
// pending replays are flushed — for any Workers count, and also for a run
// that MaxCycles cuts off inside an open gated window, whose replays only
// the shard merge flushes.
func TestGatedReplayTraceConsistency(t *testing.T) {
	cases := []struct {
		name     string
		workload string
		mutate   func(*config.Hardware)
	}{
		{"bfs_naive_blocking", "bfs", func(c *config.Hardware) {
			c.MMU = config.NaiveMMU(3)
		}},
		{"memcached_naive_gto", "memcached", func(c *config.Hardware) {
			c.MMU = config.NaiveMMU(4)
			c.Sched.Policy = config.SchedGTO
		}},
	}
	run := func(t *testing.T, workload string, cfg config.Hardware, workers int, maxCycles uint64) (*issueCounter, *stats.Sim, error) {
		t.Helper()
		w, err := workloads.Build(workload, workloads.SizeTiny, cfg.PageShift, 7)
		if err != nil {
			t.Fatal(err)
		}
		st := &stats.Sim{}
		g, err := New(cfg, w.AS, st)
		if err != nil {
			t.Fatal(err)
		}
		g.MaxCycles = maxCycles
		g.Workers = workers
		ic := &issueCounter{g: g}
		g.SetTracer(ic)
		_, err = g.Run(w.Launch)
		return ic, st, err
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := config.SmallTest()
			tc.mutate(&cfg)
			var cut engine.Cycle
			for _, workers := range []int{1, 2} {
				ic, st, err := run(t, tc.workload, cfg, workers, 50_000_000)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if ic.firstAt == 0 {
					t.Fatalf("workers=%d: no gated window ever replayed", workers)
				}
				if got := st.ActiveLanes.Count(); ic.issues != got {
					t.Fatalf("workers=%d: %d EvIssue events but ActiveLanes.Count() = %d", workers, ic.issues, got)
				}
				cut = ic.firstAt
			}
			// Stop the run right after the first cycle that left replays
			// pending: only mergeShards can flush them.
			for _, workers := range []int{1, 2} {
				ic, st, err := run(t, tc.workload, cfg, workers, uint64(cut))
				if !errors.Is(err, obs.ErrMaxCycles) {
					t.Fatalf("workers=%d: cut at %d returned %v, want ErrMaxCycles", workers, cut, err)
				}
				if ic.pending == 0 {
					t.Fatalf("workers=%d: no gated replays pending when the run was cut at %d", workers, cut)
				}
				if got := st.ActiveLanes.Count(); ic.issues != got {
					t.Fatalf("workers=%d: cut run traced %d EvIssue events but ActiveLanes.Count() = %d",
						workers, ic.issues, got)
				}
			}
		})
	}
}
