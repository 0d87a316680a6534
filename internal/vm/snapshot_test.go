package vm

import "testing"

// dirtyPages counts the materialised frames whose dirty bit is set. It is
// the one place these tests look inside PhysMem's page store.
func dirtyPages(m *PhysMem) int {
	n := 0
	m.pages.each(func(_ uint64, p **physPage) {
		if (*p).dirty {
			n++
		}
	})
	return n
}

// TestSnapshotRestoreRewindsWrites pins the dirty-page mechanics: after a
// snapshot, only written frames are restored, frames materialised later
// vanish, and the allocator/heap cursors rewind so a Malloc after restore
// reproduces the pre-mutation layout exactly.
func TestSnapshotRestoreRewindsWrites(t *testing.T) {
	mem := NewPhysMem()
	alloc := NewFrameAllocator(256 << 20)
	as := NewAddressSpace(mem, alloc, PageShift4K)

	base := as.Malloc(4 * PageSize4K)
	for i := uint64(0); i < 4; i++ {
		as.Write64(base+i*PageSize4K, 100+i)
	}

	img := mem.SnapshotPages()
	allocState := alloc.State()
	heapState := as.HeapSnapshot()
	pagesAtSnapshot := mem.BackedPages()

	// Mutate snapshotted pages and grow past the snapshot.
	as.Write64(base, 0xBAD)
	as.Write64(base+3*PageSize4K, 0xBAD)
	extra := as.Malloc(2 * PageSize4K)
	as.Write64(extra, 0xBAD)
	if mem.BackedPages() <= pagesAtSnapshot {
		t.Fatal("growth did not materialise new pages; test is vacuous")
	}

	mem.RestorePages(img)
	alloc.SetState(allocState)
	as.SetHeapState(heapState)

	for i := uint64(0); i < 4; i++ {
		if got := as.Read64(base + i*PageSize4K); got != 100+i {
			t.Fatalf("page %d: read %#x after restore, want %d", i, got, 100+i)
		}
	}
	if got := mem.BackedPages(); got > pagesAtSnapshot {
		t.Fatalf("%d pages after restore, want <= %d (post-snapshot pages must be discarded)", got, pagesAtSnapshot)
	}
	if got := as.MappedBytes(); got != heapState.Mapped {
		t.Fatalf("MappedBytes %d after restore, want %d", got, heapState.Mapped)
	}

	// The rewound allocator and heap must reproduce the discarded
	// allocation: same VA, same (reused) frames, reading as fresh zeroes.
	extra2 := as.Malloc(2 * PageSize4K)
	if extra2 != extra {
		t.Fatalf("post-restore Malloc returned %#x, pre-restore returned %#x", extra2, extra)
	}
	if got := as.Read64(extra2); got != 0 {
		t.Fatalf("recycled page reads %#x, want 0 (never-written DRAM)", got)
	}
}

// TestSnapshotCleanPagesSkipped: a second restore without intervening
// writes must find nothing dirty (SnapshotPages and RestorePages both
// clear dirty bits), and repeated snapshots see identical contents.
func TestSnapshotCleanPagesSkipped(t *testing.T) {
	mem := NewPhysMem()
	alloc := NewFrameAllocator(64 << 20)
	as := NewAddressSpace(mem, alloc, PageShift4K)

	base := as.Malloc(PageSize4K)
	as.Write64(base, 42)

	img := mem.SnapshotPages()
	if n := dirtyPages(mem); n != 0 {
		t.Fatalf("SnapshotPages left %d dirty pages behind", n)
	}

	as.Write64(base, 43)
	if n := dirtyPages(mem); n != 1 {
		t.Fatalf("one write left %d dirty pages, want 1", n)
	}
	mem.RestorePages(img)
	if n := dirtyPages(mem); n != 0 {
		t.Fatalf("RestorePages left %d dirty pages behind", n)
	}
	if got := as.Read64(base); got != 42 {
		t.Fatalf("read %d after restore, want 42", got)
	}

	// Reads must not dirty pages: restore again and verify nothing moved.
	_ = as.Read64(base)
	mem.RestorePages(img)
	if got := as.Read64(base); got != 42 {
		t.Fatalf("read %d after second restore, want 42", got)
	}
}

// TestSnapshot2MSpaces: 2 MB-page spaces snapshot at the same 4 KB frame
// granularity (superframes are runs of 4 KB frames), and the superframe
// cursor rewinds with AllocState.
func TestSnapshot2MSpaces(t *testing.T) {
	mem := NewPhysMem()
	alloc := NewFrameAllocator(256 << 20)
	as := NewAddressSpace(mem, alloc, PageShift2M)

	base := as.Malloc(PageSize2M)
	as.Write64(base, 7)
	as.Write64(base+PageSize2M-8, 9)

	img := mem.SnapshotPages()
	st := alloc.State()
	hs := as.HeapSnapshot()

	as.Write64(base, 1000)
	extra := as.Malloc(PageSize2M)
	as.Write64(extra, 1001)

	mem.RestorePages(img)
	alloc.SetState(st)
	as.SetHeapState(hs)

	if got := as.Read64(base); got != 7 {
		t.Fatalf("read %d after restore, want 7", got)
	}
	if got := as.Read64(base + PageSize2M - 8); got != 9 {
		t.Fatalf("tail read %d after restore, want 9", got)
	}
	if got := as.Malloc(PageSize2M); got != extra {
		t.Fatalf("post-restore Malloc returned %#x, pre-restore returned %#x", got, extra)
	}
	if as.Alloc() != alloc {
		t.Fatal("Alloc() did not return the backing allocator")
	}
}
