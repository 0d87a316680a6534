package vm

import "testing"

// TestWalkAllocFree pins the allocation-free functional walk: Walk fills a
// value-embedded LevelPAs array, so page table walks — executed once per
// TLB miss plus once per memoised functional translation — must not touch
// the heap.
func TestWalkAllocFree(t *testing.T) {
	mem := NewPhysMem()
	alloc := NewFrameAllocator(1 << 20)
	pt := NewPageTable(mem, alloc)
	va := uint64(0x5C00_0000_0000)
	if err := pt.Map4K(va, alloc.Alloc4K()); err != nil {
		t.Fatal(err)
	}
	// Warm: materialise any lazily created physical pages.
	if _, err := pt.Walk(va); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := pt.Walk(va); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("PageTable.Walk allocates %.1f objects per walk, want 0", avg)
	}
}

// TestTranslatorHitAllocFree pins the memoised translation hit path used by
// every functional load/store in the simulator.
func TestTranslatorHitAllocFree(t *testing.T) {
	mem := NewPhysMem()
	alloc := NewFrameAllocator(1 << 20)
	pt := NewPageTable(mem, alloc)
	va := uint64(0x5C00_0000_0000)
	if err := pt.Map4K(va, alloc.Alloc4K()); err != nil {
		t.Fatal(err)
	}
	tr := NewTranslator(pt, PageShift4K)
	tr.Lookup(va) // prime the cache
	avg := testing.AllocsPerRun(200, func() {
		if got := tr.Translate(va + 8); got == 0 {
			t.Fatal("unexpected zero translation")
		}
	})
	if avg != 0 {
		t.Fatalf("Translator hit allocates %.1f objects per lookup, want 0", avg)
	}
}

// TestPhysMemAccessAllocFree pins the functional memory path: reads and
// writes of materialised pages, page views, and loads of pages that were
// never written must not touch the heap.
func TestPhysMemAccessAllocFree(t *testing.T) {
	mem := NewPhysMem()
	const backed, unbacked = 0x7_3000, 0x900_0000
	for i := uint64(0); i < 64; i++ {
		mem.Write64(backed+i*PageSize4K, i) // materialise a few dozen frames
	}
	avg := testing.AllocsPerRun(200, func() {
		mem.Write64(backed+8, 1)
		mem.Write32(backed+PageSize4K+4, 2)
		mem.WriteU8(backed+2*PageSize4K+1, 3)
		mem.MutablePageBytes(backed + 3*PageSize4K)[0] = 4
		if mem.Read64(backed+8)+uint64(mem.Read32(backed+PageSize4K+4))+uint64(mem.ReadU8(backed+2*PageSize4K+1)) != 6 {
			t.Fatal("read back the wrong values")
		}
		if mem.Read64(unbacked) != 0 || mem.Read32(unbacked+4) != 0 || mem.ReadU8(unbacked+1) != 0 || mem.PageBytes(unbacked) != nil {
			t.Fatal("unbacked page does not read as zeroes")
		}
		if mem.PageBytes(backed) == nil {
			t.Fatal("backed page has no view")
		}
	})
	if avg != 0 {
		t.Fatalf("PhysMem access allocates %.1f objects per round, want 0", avg)
	}
	if got := mem.BackedPages(); got != 64 {
		t.Fatalf("%d pages backed, want 64 (reads must not materialise)", got)
	}
}

// TestAddressSpaceAccessAllocFree pins the virtual access path workloads
// build and check through: translating on and off the last page must not
// touch the heap.
func TestAddressSpaceAccessAllocFree(t *testing.T) {
	for _, shift := range []uint{PageShift4K, PageShift2M} {
		as := NewAddressSpace(NewPhysMem(), NewFrameAllocator(1<<20), shift)
		page := uint64(1) << shift
		base := as.Malloc(2 * page)
		as.Write64(base, 0)
		as.Write64(base+page, 0)
		avg := testing.AllocsPerRun(200, func() {
			as.Write64(base+8, 1)
			as.Write32(base+page+4, 2) // off the last page: walks
			as.WriteU8(base+16, 3)
			if as.Read64(base+8)+uint64(as.Read32(base+page+4))+uint64(as.ReadU8(base+16)) != 6 {
				t.Fatal("read back the wrong values")
			}
		})
		if avg != 0 {
			t.Fatalf("shift %d: AddressSpace access allocates %.1f objects per round, want 0", shift, avg)
		}
	}
}
