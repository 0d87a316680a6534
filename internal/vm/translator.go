package vm

import "fmt"

// Translator memoises page table walks per virtual page so the simulator's
// functional path (instruction execution, workload setup) can translate
// with one page-index lookup instead of a four-level walk. The timing path
// in internal/core uses the memoised Translation's LevelPAs to issue the
// walk's loads through the timing model; the translations themselves never
// change during a kernel (the paper's workloads take no page faults or
// shootdowns mid-run, section 6.2).
type Translator struct {
	pt    *PageTable
	shift uint
	cache pageIndex[Translation] // by VPN
}

// NewTranslator wraps pt, caching at the address space's page granularity.
func NewTranslator(pt *PageTable, pageShift uint) *Translator {
	return &Translator{pt: pt, shift: pageShift, cache: newPageIndex[Translation]()}
}

// PageShift returns the translation granularity.
func (t *Translator) PageShift() uint { return t.shift }

// VPN returns the virtual page number of va at this granularity.
func (t *Translator) VPN(va uint64) uint64 { return va >> t.shift }

// MemoSize reports how many page translations are currently memoised
// (tests observe walk caching and Prewarm coverage through it).
func (t *Translator) MemoSize() int { return t.cache.count() }

// Lookup returns the cached translation for the page containing va,
// walking the page table on first use.
func (t *Translator) Lookup(va uint64) Translation {
	vpn := t.VPN(va)
	if tr := t.cache.find(vpn); tr != nil {
		return *tr
	}
	tr, err := t.pt.Walk(va &^ ((1 << t.shift) - 1))
	if err != nil {
		panic(fmt.Sprintf("vm: translator: %v", err))
	}
	if tr.PageShift != t.shift {
		panic(fmt.Sprintf("vm: translator: page shift mismatch: got %d want %d", tr.PageShift, t.shift))
	}
	t.cache.insert(vpn, tr)
	return tr
}

// Translate returns the physical address for va.
func (t *Translator) Translate(va uint64) uint64 {
	tr := t.Lookup(va)
	return tr.PageBase() | (va & ((1 << t.shift) - 1))
}

// Prewarm eagerly memoises the translation of every page mapped in the page
// table by enumerating the radix tree from CR3. Afterwards the page index
// is never written again (the paper's workloads take no page faults or
// remaps mid-kernel), and its lookups never write, so concurrent readers —
// the parallel compute phase of a multi-worker simulation run — can call
// Lookup/Translate without synchronisation.
func (t *Translator) Prewarm() {
	t.prewarmTable(t.pt.CR3(), 0, levelPML4)
}

// prewarmTable walks one table page at walk level l; vaBase carries the
// virtual-address bits contributed by the indices of the levels above.
func (t *Translator) prewarmTable(tableBase, vaBase uint64, l int) {
	shift := uint(39 - 9*l)
	for i := uint64(0); i < entriesPerPT; i++ {
		e := t.pt.mem.Read64(tableBase + i*pteSize)
		if e&pteFlagPresent == 0 {
			continue
		}
		va := vaBase | i<<shift
		if (l == levelPD && e&pteFlagPS != 0) || l == levelPT {
			if va&(1<<47) != 0 {
				va |= 0xFFFF_0000_0000_0000 // canonical sign extension
			}
			t.Lookup(va)
			continue
		}
		t.prewarmTable(e&pteAddrMask, va, l+1)
	}
}
