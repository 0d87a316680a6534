package gpu

import (
	"testing"

	"gpummu/internal/config"
	"gpummu/internal/core"
	"gpummu/internal/engine"
	"gpummu/internal/kernels"
	"gpummu/internal/stats"
	"gpummu/internal/vm"
)

// benchCore builds a GPU around a manually dispatched single block so tests
// can drive Core internals (coalesceMem, execMem) directly.
func benchCore(t *testing.T, cfg config.Hardware, blockDim int) (*Core, *Block, uint64) {
	t.Helper()
	as := vm.NewAddressSpace(vm.NewPhysMem(), vm.NewFrameAllocator(1<<20), vm.PageShift4K)
	data := as.Malloc(64 << 12)
	st := &stats.Sim{}
	g, err := New(cfg, as, st)
	if err != nil {
		t.Fatal(err)
	}
	l := &kernels.Launch{Program: pageStrideKernel(), Grid: 1, BlockDim: blockDim}
	l.Params[0] = data
	g.launch = l
	c := g.cores[0]
	b := newBlock(c, 0, 0)
	c.blocks = append(c.blocks, b)
	return c, b, data
}

// TestCoalesceMultiWarpAttribution drives the page-warp attribution of a
// TBC-compacted warp whose lanes come from two original warps: each page's
// PageReq.Warps must list every distinct origWarp exactly once, in
// first-appearance order — the contract the Common Page Matrix and the TLB
// entry history rely on.
func TestCoalesceMultiWarpAttribution(t *testing.T) {
	cfg := config.SmallTest()
	cfg.MMU = config.AugmentedMMU()
	cfg.TBC.Mode = config.DivTBC
	c, b, data := benchCore(t, cfg, 64) // two original warps: 0 and 1
	in := &c.g.launch.Program.Code[4]   // the Ld of pageStrideKernel
	if in.Kind != kernels.KindLoad {
		t.Fatalf("expected Code[4] to be the load, got kind %d", in.Kind)
	}

	// A compacted warp mixing threads of original warps 0 and 1:
	//   lane 0: tid 0  (warp 0) -> page 0
	//   lane 1: tid 33 (warp 1) -> page 0   (same page, second warp)
	//   lane 2: tid 2  (warp 0) -> page 1
	//   lane 3: tid 35 (warp 1) -> page 1
	//   lane 4: tid 4  (warp 0) -> page 0   (duplicate attribution)
	w := b.warps[0]
	for i := range w.lanes {
		w.lanes[i] = noLane
	}
	set := func(lane int, tid int32, va uint64) {
		w.lanes[lane] = tid
		b.threads[tid].regs[in.A] = va
	}
	set(0, 0, data)
	set(1, 33, data+8)
	set(2, 2, data+(1<<12))
	set(3, 35, data+(1<<12)+16)
	set(4, 4, data+24)

	c.coalesceMem(w, in, false)
	sc := &c.scratch
	if len(sc.reqs) != 2 {
		t.Fatalf("distinct pages = %d, want 2", len(sc.reqs))
	}
	for i, wantVPN := range []uint64{data >> 12, (data + (1 << 12)) >> 12} {
		if sc.reqs[i].VPN != wantVPN {
			t.Fatalf("page %d VPN = %#x, want %#x", i, sc.reqs[i].VPN, wantVPN)
		}
		ws := sc.reqs[i].Warps
		if len(ws) != 2 || ws[0] != 0 || ws[1] != 1 {
			t.Fatalf("page %d Warps = %v, want [0 1]", i, ws)
		}
	}

	// Scratch reuse must fully reset attribution: re-coalesce with only
	// warp-1 threads touching page 0.
	for i := range w.lanes {
		w.lanes[i] = noLane
	}
	set(1, 33, data)
	set(3, 35, data+32)
	c.coalesceMem(w, in, false)
	if len(sc.reqs) != 1 {
		t.Fatalf("distinct pages after reuse = %d, want 1", len(sc.reqs))
	}
	if ws := sc.reqs[0].Warps; len(ws) != 1 || ws[0] != 1 {
		t.Fatalf("Warps after reuse = %v, want [1]", ws)
	}
}

// TestExecMemSteadyStateAllocFree pins the tentpole property: once the TLB
// and L1 are warm, a full warp memory instruction — coalescing, translation,
// and cache access — performs zero heap allocations.
func TestExecMemSteadyStateAllocFree(t *testing.T) {
	cfg := config.SmallTest()
	cfg.MMU = config.AugmentedMMU()
	c, b, data := benchCore(t, cfg, 32)
	in := &c.g.launch.Program.Code[4]
	w := b.warps[0]
	for i, tid := range w.stack[0].lanes {
		if tid == noLane {
			continue
		}
		// All lanes in one page, a few distinct lines: the steady-state hit
		// pattern of a regular workload.
		b.threads[tid].regs[in.A] = data + uint64(i)*8
	}

	now := engine.Cycle(0)
	runOnce := func() {
		w.stack[0].pc = 4 // rewind to the load; execMem advances past it
		w.state = WReady
		c.execMem(now, w, in)
		now = w.readyAt + 8
		// The slotted L1 port deletes as many window slots as it inserts
		// once pruned, keeping its map in steady state.
		c.l1Port.PruneBefore(now)
	}
	for i := 0; i < 32; i++ {
		runOnce() // warm TLB, L1, MSHRs, and scratch buffers
	}
	avg := testing.AllocsPerRun(200, runOnce)
	if avg != 0 {
		t.Fatalf("warm execMem allocates %.2f objects per instruction, want 0", avg)
	}
}

// TestGatedReplayAllocFree pins the blocking-gate fast path: a naive-MMU
// core whose ready warps all wait at a load behind an outstanding walk
// records a gated window on a real tick and replays it on the following
// steps, and neither the recording tick, the replays nor the flush allocate
// — the candidate list is per-core scratch reused across ticks. Replays only
// count steps; their active-lane samples reach the histogram in one batch
// when the window is flushed.
func TestGatedReplayAllocFree(t *testing.T) {
	cfg := config.SmallTest()
	cfg.MMU = config.NaiveMMU(4)
	c, b, data := benchCore(t, cfg, 128) // four warps
	for _, w := range b.warps {
		w.stack[0].pc = 4 // every warp waits at the load
	}
	c.liveDirty = true
	// A walk completing far in the future keeps the blocking gate closed.
	c.mmu.Lookup(1000, []core.PageReq{{VPN: data >> 12}})
	walkDone := c.mmu.NextEvent(0)

	const replays = 7
	record := func() {
		c.tick(10) // every candidate refused: the window is recorded
	}
	replay := func() {
		for now := engine.Cycle(11); now <= 10+replays; now++ {
			c.phaseCompute(now)
			c.commit(now)
		}
	}
	runOnce := func() {
		record()
		replay()
		c.flushGate()
	}
	runOnce()
	if len(c.gateCands) != len(b.warps) || c.gateAt != 10 || c.gateUntil != walkDone {
		t.Fatalf("gated window = %d candidates [%d, %d), want %d [10, %d)",
			len(c.gateCands), c.gateAt, c.gateUntil, len(b.warps), walkDone)
	}
	if c.tkKind != tkTicked || c.tkIssued || c.tkEv != walkDone {
		t.Fatalf("replayed step reported kind=%d issued=%v ev=%d, want a no-issue tick until %d",
			c.tkKind, c.tkIssued, c.tkEv, walkDone)
	}
	before := c.st.ActiveLanes.Count()
	record()
	recorded := c.st.ActiveLanes.Count()
	if got, want := recorded-before, uint64(len(b.warps)); got != want {
		t.Fatalf("recording tick observed %d issue attempts, want %d", got, want)
	}
	replay()
	if got := c.st.ActiveLanes.Count(); got != recorded {
		t.Fatalf("%d replays observed %d issue attempts before the flush, want 0 (batched)", replays, got-recorded)
	}
	if c.gateSteps != replays {
		t.Fatalf("gateSteps = %d after %d replays", c.gateSteps, replays)
	}
	c.flushGate()
	if got, want := c.st.ActiveLanes.Count()-before, uint64((1+replays)*len(b.warps)); got != want {
		t.Fatalf("one recording tick plus %d flushed replays observed %d issue attempts, want %d", replays, got, want)
	}
	avg := testing.AllocsPerRun(200, runOnce)
	if avg != 0 {
		t.Fatalf("gated tick, replay and flush allocate %.2f objects per run, want 0", avg)
	}
}
