package core

import (
	"testing"

	"gpummu/internal/config"
	"gpummu/internal/engine"
	"gpummu/internal/mem"
	"gpummu/internal/stats"
	"gpummu/internal/vm"
)

// mmuHarness wires an MMU to a real page table with pages pages mapped.
type mmuHarness struct {
	mmu  *MMU
	st   *stats.Sim
	base uint64
	tr   *vm.Translator
}

func newHarness(t *testing.T, mcfg config.MMU, pages int) *mmuHarness {
	t.Helper()
	pm := vm.NewPhysMem()
	alloc := vm.NewFrameAllocator(1 << 20)
	as := vm.NewAddressSpace(pm, alloc, vm.PageShift4K)
	base := as.Malloc(uint64(pages) * vm.PageSize4K)
	st := &stats.Sim{}
	sys := mem.NewSystem(config.SmallTest(), st)
	tr := vm.NewTranslator(as.PT, vm.PageShift4K)
	return &mmuHarness{
		mmu:  NewMMU(mcfg, sys, tr, st, 2),
		st:   st,
		base: base,
		tr:   tr,
	}
}

func (h *mmuHarness) vpn(i int) uint64 { return (h.base >> vm.PageShift4K) + uint64(i) }

func req(vpns ...uint64) []PageReq {
	out := make([]PageReq, len(vpns))
	for i, v := range vpns {
		out[i] = PageReq{VPN: v, Warps: []int{0}}
	}
	return out
}

func TestMMUDisabledIsFree(t *testing.T) {
	h := newHarness(t, config.MMU{}, 4)
	res := h.mmu.Lookup(100, req(h.vpn(0), h.vpn(1)))
	for _, r := range res {
		if !r.Hit || r.ReadyAt != 100 {
			t.Fatalf("disabled MMU result %+v", r)
		}
		if want := h.tr.Translate(r.VPN << 12); r.PBase != want {
			t.Fatalf("wrong translation %#x, want %#x", r.PBase, want)
		}
	}
	if h.st.TLBAccesses != 0 {
		t.Fatal("disabled MMU counted TLB accesses")
	}
	if !h.mmu.CanAcceptMemOp(100) {
		t.Fatal("disabled MMU blocked a memory op")
	}
}

func TestMMUMissThenHit(t *testing.T) {
	h := newHarness(t, config.NaiveMMU(4), 4)
	res := h.mmu.Lookup(0, req(h.vpn(0)))
	if res[0].Hit {
		t.Fatal("cold lookup hit")
	}
	if res[0].ReadyAt == 0 {
		t.Fatal("walk completed instantly")
	}
	if h.st.Walks != 1 || h.st.WalkRefs != 4 {
		t.Fatalf("walk stats = %d walks, %d refs; want 1, 4", h.st.Walks, h.st.WalkRefs)
	}
	// After the walk completes the entry must hit.
	res2 := h.mmu.Lookup(res[0].ReadyAt, req(h.vpn(0)))
	if !res2[0].Hit {
		t.Fatal("post-walk lookup missed")
	}
	if res2[0].PBase != res[0].PBase {
		t.Fatal("hit returned different translation")
	}
}

func TestMMUBlockingGate(t *testing.T) {
	h := newHarness(t, config.NaiveMMU(4), 4)
	res := h.mmu.Lookup(0, req(h.vpn(0)))
	if h.mmu.CanAcceptMemOp(1) {
		t.Fatal("blocking TLB accepted a mem op with a walk outstanding")
	}
	if ev := h.mmu.NextEvent(1); ev != res[0].ReadyAt {
		t.Fatalf("NextEvent = %d, want %d", ev, res[0].ReadyAt)
	}
	if !h.mmu.CanAcceptMemOp(res[0].ReadyAt) {
		t.Fatal("gate still closed after walk completion")
	}
}

// TestMMUEarliestCompletionCache drives several overlapping walks and checks
// that the cached earliest completion tracks the outstanding minimum as walks
// start and retire (NextEvent, Occupancy and the audit all agree with a
// scan), then that the audit catches a corrupted cache.
func TestMMUEarliestCompletionCache(t *testing.T) {
	h := newHarness(t, config.NaiveMMU(4), 8)
	m := h.mmu
	var dones []engine.Cycle
	for i, at := range []engine.Cycle{0, 3, 7, 40} {
		dones = append(dones, m.Lookup(at, req(h.vpn(i)))[0].ReadyAt)
	}
	scanMin := func(now engine.Cycle) (least engine.Cycle, busy int) {
		for _, d := range dones {
			if d > now {
				busy++
				if least == 0 || d < least {
					least = d
				}
			}
		}
		return least, busy
	}
	for now := engine.Cycle(41); ; now++ {
		want, busy := scanMin(now)
		if _, used := m.Occupancy(now); used != busy {
			t.Fatalf("cycle %d: Occupancy MSHRs = %d, want %d", now, used, busy)
		}
		if err := m.CheckInvariants(now, 0); err != nil {
			t.Fatalf("cycle %d: %v", now, err)
		}
		if got := m.NextEvent(now); got != want {
			t.Fatalf("cycle %d: NextEvent = %d, want %d", now, got, want)
		}
		if want == 0 {
			break
		}
	}

	m.Lookup(1000, req(h.vpn(5)))
	m.Lookup(1001, req(h.vpn(6)))
	if err := m.CheckInvariants(1001, 0); err != nil {
		t.Fatal(err)
	}
	m.earliest++
	if err := m.CheckInvariants(1001, 0); err == nil {
		t.Fatal("audit missed a stale earliest-completion cache")
	}
}

func TestMMUHitsUnderMiss(t *testing.T) {
	cfg := config.NaiveMMU(4)
	cfg.HitsUnderMiss = true
	h := newHarness(t, cfg, 4)
	// Warm vpn 1.
	r1 := h.mmu.Lookup(0, req(h.vpn(1)))
	warm := r1[0].ReadyAt
	// Start a miss on vpn 0, then a hit on vpn 1 while it is outstanding.
	h.mmu.Lookup(warm, req(h.vpn(0)))
	if !h.mmu.CanAcceptMemOp(warm + 1) {
		t.Fatal("non-blocking TLB closed the gate")
	}
	res := h.mmu.Lookup(warm+1, req(h.vpn(1)))
	if !res[0].Hit {
		t.Fatal("hit under miss missed")
	}
	if h.st.TLBHitUnder == 0 {
		t.Fatal("hit-under-miss not counted")
	}
}

func TestMMUMergedMiss(t *testing.T) {
	cfg := config.NaiveMMU(4)
	cfg.HitsUnderMiss = true
	h := newHarness(t, cfg, 4)
	a := h.mmu.Lookup(0, req(h.vpn(0)))
	b := h.mmu.Lookup(1, req(h.vpn(0)))
	if !b[0].Merged {
		t.Fatal("second miss on same VPN not merged")
	}
	if b[0].ReadyAt != a[0].ReadyAt {
		t.Fatalf("merged miss completes at %d, walk at %d", b[0].ReadyAt, a[0].ReadyAt)
	}
	if h.st.Walks != 1 {
		t.Fatalf("merged miss started a second walk (%d)", h.st.Walks)
	}
}

func TestMMUPTWSchedulingCoalesces(t *testing.T) {
	naive := newHarness(t, config.NaiveMMU(4), 8)
	vpnsN := req(naive.vpn(0), naive.vpn(1), naive.vpn(2), naive.vpn(3))
	naive.mmu.Lookup(0, vpnsN)

	cfg := config.AugmentedMMU()
	sched := newHarness(t, cfg, 8)
	vpnsS := req(sched.vpn(0), sched.vpn(1), sched.vpn(2), sched.vpn(3))
	sched.mmu.Lookup(0, vpnsS)

	if naive.st.WalkRefsCoalesced != 0 {
		t.Fatal("naive walker coalesced references")
	}
	if sched.st.WalkRefsCoalesced == 0 {
		t.Fatal("PTW scheduling coalesced nothing for adjacent pages")
	}
	// Adjacent pages share PML4/PDP/PD: 3 of 4 refs per extra walk vanish.
	if sched.st.WalkRefs >= naive.st.WalkRefs {
		t.Fatalf("scheduled refs %d not below naive %d", sched.st.WalkRefs, naive.st.WalkRefs)
	}
}

func TestMMUPTWSchedulingFasterOnBurst(t *testing.T) {
	// Warm the shared L2 with a first round of walks, flush the TLB, then
	// measure a 16-page burst: the coalescing scheduler must finish the
	// burst sooner in aggregate than serial walkers.
	mk := func(sched bool) (total engine.Cycle) {
		cfg := config.NaiveMMU(4)
		cfg.HitsUnderMiss = true
		cfg.PTWSched = sched
		h := newHarness(t, cfg, 16)
		var rs []uint64
		for i := 0; i < 16; i++ {
			rs = append(rs, h.vpn(i))
		}
		res := h.mmu.Lookup(0, req(rs...))
		var warm engine.Cycle
		for _, r := range res {
			if r.ReadyAt > warm {
				warm = r.ReadyAt
			}
		}
		h.mmu.Shootdown()
		res = h.mmu.Lookup(warm+1, req(rs...))
		for _, r := range res {
			total += r.ReadyAt - (warm + 1)
		}
		return total
	}
	serial, batched := mk(false), mk(true)
	if batched >= serial {
		t.Fatalf("PTW scheduling burst total %d not below serial %d", batched, serial)
	}
}

func TestMMUMultipleWalkersOverlap(t *testing.T) {
	// One walker pipelines WalkConcurrency walks; a burst wider than that
	// must finish sooner with more hardware walkers.
	mk := func(n int) engine.Cycle {
		cfg := config.NaiveMMU(4)
		cfg.HitsUnderMiss = true
		cfg.NumPTWs = n
		h := newHarness(t, cfg, 32)
		var vpns []uint64
		for i := 0; i < 24; i++ {
			vpns = append(vpns, h.vpn(i))
		}
		res := h.mmu.Lookup(0, req(vpns...))
		var worst engine.Cycle
		for _, r := range res {
			if r.ReadyAt > worst {
				worst = r.ReadyAt
			}
		}
		return worst
	}
	if one, four := mk(1), mk(4); four >= one {
		t.Fatalf("4 walkers (%d) not faster than 1 (%d)", four, one)
	}
}

func TestMMUWalkConcurrencyPipelines(t *testing.T) {
	// With concurrency 1 a second walk waits the full first walk; with 4
	// it overlaps.
	mk := func(wc int) engine.Cycle {
		cfg := config.NaiveMMU(4)
		cfg.HitsUnderMiss = true
		cfg.WalkConcurrency = wc
		h := newHarness(t, cfg, 8)
		res := h.mmu.Lookup(0, req(h.vpn(0), h.vpn(2), h.vpn(4), h.vpn(6)))
		var worst engine.Cycle
		for _, r := range res {
			if r.ReadyAt > worst {
				worst = r.ReadyAt
			}
		}
		return worst
	}
	if serial, piped := mk(1), mk(4); piped >= serial {
		t.Fatalf("pipelined walker (%d) not faster than serial (%d)", piped, serial)
	}
}

func TestMMUAccessPenaltyBySize(t *testing.T) {
	cases := []struct {
		entries int
		want    engine.Cycle
	}{{64, 0}, {128, 0}, {256, 4}, {512, 8}}
	for _, c := range cases {
		cfg := config.NaiveMMU(4)
		cfg.Entries = c.entries
		h := newHarness(t, cfg, 1)
		if got := h.mmu.AccessPenalty(); got != c.want {
			t.Fatalf("%d entries: penalty %d, want %d", c.entries, got, c.want)
		}
	}
	ideal := config.MMU{}.Ideal()
	h := newHarness(t, ideal, 1)
	if h.mmu.AccessPenalty() != 0 {
		t.Fatal("ideal TLB has a latency penalty")
	}
}

func TestMMUPortContention(t *testing.T) {
	mk := func(ports int) engine.Cycle {
		cfg := config.NaiveMMU(ports)
		h := newHarness(t, cfg, 32)
		// Warm all pages first.
		var rs []uint64
		for i := 0; i < 32; i++ {
			rs = append(rs, h.vpn(i))
		}
		res := h.mmu.Lookup(0, req(rs...))
		var warm engine.Cycle
		for _, r := range res {
			if r.ReadyAt > warm {
				warm = r.ReadyAt
			}
		}
		// Now measure a fully hitting 32-page lookup.
		res = h.mmu.Lookup(warm+1000, req(rs...))
		var worst engine.Cycle
		for _, r := range res {
			if !r.Hit {
				t.Fatal("warm page missed")
			}
			if r.ReadyAt > worst {
				worst = r.ReadyAt
			}
		}
		return worst - (warm + 1000)
	}
	few, many := mk(3), mk(32)
	if many >= few {
		t.Fatalf("32 ports (%d) not faster than 3 ports (%d)", many, few)
	}
}

func TestMMUShootdownFlushes(t *testing.T) {
	h := newHarness(t, config.NaiveMMU(4), 2)
	r := h.mmu.Lookup(0, req(h.vpn(0)))
	h.mmu.Shootdown()
	res := h.mmu.Lookup(r[0].ReadyAt+10, req(h.vpn(0)))
	if res[0].Hit {
		t.Fatal("entry survived shootdown")
	}
}

func TestMMUMSHRLimitDelaysWalks(t *testing.T) {
	worst := func(mshrs int) engine.Cycle { // returns summed ReadyAt
		cfg := config.NaiveMMU(4)
		cfg.HitsUnderMiss = true
		cfg.WalkConcurrency = 4
		cfg.MSHRs = mshrs
		h := newHarness(t, cfg, 8)
		res := h.mmu.Lookup(0, req(h.vpn(0), h.vpn(1), h.vpn(2), h.vpn(3)))
		var sum engine.Cycle
		for _, r := range res {
			sum += r.ReadyAt
		}
		return sum
	}
	// With 2 MSHRs the 3rd and 4th walks wait for earlier completions, so
	// the burst takes strictly longer in aggregate than with ample MSHRs.
	if ample, tight := worst(32), worst(2); tight <= ample {
		t.Fatalf("MSHR limit not enforced: tight %d vs ample %d", tight, ample)
	}
}
