package core

import (
	"fmt"

	"gpummu/internal/engine"
	"gpummu/internal/vm"
)

// This file is the MMU half of the debug-build invariant checker (DESIGN.md
// §12): read-only structural checks the timing simulator runs on a coarse
// cadence when invariant checking is enabled. Nothing here may mutate TLB
// recency, walker timing, or MSHR state — the checks must not perturb the
// simulation they are auditing.

// ForEachValid calls fn for every valid TLB entry, including entries whose
// fill is still in flight (validAt in the future). Unlike Lookup it touches
// no recency or history state.
func (t *TLB) ForEachValid(fn func(vpn, pbase uint64, validAt engine.Cycle)) {
	for _, set := range t.sets {
		for i := range set {
			if e := &set[i]; e.valid {
				fn(e.vpn, e.pbase, e.validAt)
			}
		}
	}
}

// checkTLBCoherence verifies that every entry of t is a subset of the page
// table: its cached physical page base must equal what a fresh walk of the
// entry's virtual page returns. label names the structure in errors.
func checkTLBCoherence(t *TLB, tr *vm.Translator, label string) error {
	var err error
	t.ForEachValid(func(vpn, pbase uint64, _ engine.Cycle) {
		if err != nil {
			return
		}
		want := tr.Lookup(vpn << tr.PageShift()).PageBase()
		if pbase != want {
			err = fmt.Errorf("core: %s entry vpn %#x caches pbase %#x, page table says %#x",
				label, vpn, pbase, want)
		}
	})
	return err
}

// CheckInvariants audits the MMU's structural state at cycle now:
//
//   - every valid TLB entry agrees with the page table (TLB ⊆ page table);
//   - the MSHR bookkeeping is consistent — outstanding walks and the pending
//     merge map track exactly the same set of (vpn, completion) pairs, and
//     the cached earliest completion is the minimum over outstanding;
//   - in-flight walk occupancy is bounded. The bound is cfg.MSHRs plus
//     mshrSlack because MSHR exhaustion delays a new walk's start to the
//     earliest outstanding completion rather than stalling the requester, so
//     every translating warp of the core can transiently push one batch of
//     misses past the configured registers; the caller passes the structural
//     ceiling on that batch (warps per core x warp width).
//
// Read-only: no prune, no recency updates, no reuse-window clearing.
func (m *MMU) CheckInvariants(now engine.Cycle, mshrSlack int) error {
	if !m.cfg.Enabled {
		return nil
	}
	if err := checkTLBCoherence(m.tlb, m.tr, "TLB"); err != nil {
		return err
	}
	if len(m.outstanding) != len(m.pending) {
		return fmt.Errorf("core: %d outstanding walks but %d pending map entries",
			len(m.outstanding), len(m.pending))
	}
	inflight := 0
	var least engine.Cycle
	for i, w := range m.outstanding {
		if i == 0 || w.done < least {
			least = w.done
		}
		done, ok := m.pending[w.vpn]
		if !ok {
			return fmt.Errorf("core: outstanding walk for vpn %#x missing from pending map", w.vpn)
		}
		if done != w.done {
			return fmt.Errorf("core: walk for vpn %#x completes at %d outstanding vs %d pending",
				w.vpn, w.done, done)
		}
		if w.done > now {
			inflight++
		}
	}
	if len(m.outstanding) > 0 && m.earliest != least {
		return fmt.Errorf("core: cached earliest walk completion %d but outstanding minimum is %d",
			m.earliest, least)
	}
	if limit := m.cfg.MSHRs + mshrSlack; inflight > limit {
		return fmt.Errorf("core: %d walks in flight at cycle %d exceeds MSHR bound %d (%d MSHRs + %d slack)",
			inflight, now, limit, m.cfg.MSHRs, mshrSlack)
	}
	return nil
}

// CheckInvariants verifies the shared second-tier TLB against the page
// table, exactly as the per-core check does.
func (s *SharedTLB) CheckInvariants(tr *vm.Translator) error {
	return checkTLBCoherence(s.tlb, tr, "shared TLB")
}
