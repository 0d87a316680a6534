package vm

// Snapshot primitives for checkpointed warm-start simulation
// (internal/snapshot). A checkpoint of a built workload is, at the VM
// layer, three things: a deep copy of every materialised physical page
// (data pages and the page table pages that live among them), the frame
// allocator's cursors, and the address space's heap cursor. Everything
// else a run mutates lives in per-run structures (GPU, mem.System, stats)
// that are rebuilt from the hardware config, so restoring these three
// rewinds the machine to the exact post-build state.

// PageImage is a deep copy of a PhysMem's materialised pages, keyed by
// 4 KB frame number. It is immutable after capture; restores copy out of
// it, never alias it.
type PageImage map[uint64]*[PageSize4K]byte

// SnapshotPages deep-copies every materialised page and marks the current
// contents clean, so a later RestorePages only rewrites frames written
// after this call.
func (m *PhysMem) SnapshotPages() PageImage {
	img := make(PageImage, m.pages.count())
	m.pages.each(func(fn uint64, e **physPage) {
		p := *e
		cp := p.data
		img[fn] = &cp
		p.dirty = false
	})
	return img
}

// RestorePages rewinds memory contents to a snapshot previously taken on
// this PhysMem with SnapshotPages. Frames written since the snapshot are
// restored from the image; frames materialised since the snapshot are
// discarded (they read as zeroes again, like never-written DRAM). Frames
// are never unmapped by the simulator, so a clean page is already
// byte-identical to its image and is skipped. Discarding a frame rebuilds
// the page index from the frames that remain.
func (m *PhysMem) RestorePages(img PageImage) {
	m.pages.retain(func(fn uint64, e **physPage) bool {
		p := *e
		if !p.dirty {
			return true
		}
		src, ok := img[fn]
		if ok {
			p.data = *src
			p.dirty = false
		}
		return ok
	})
}

// AllocState is a FrameAllocator's mutable state, captured for snapshot
// restore.
type AllocState struct {
	Next      uint64
	NextSuper uint64
}

// State captures the allocator's cursors.
func (a *FrameAllocator) State() AllocState {
	return AllocState{Next: a.next, NextSuper: a.nextSuper}
}

// SetState rewinds the allocator's cursors to a captured state.
func (a *FrameAllocator) SetState(s AllocState) {
	a.next, a.nextSuper = s.Next, s.NextSuper
}

// HeapState is an AddressSpace's mutable state, captured for snapshot
// restore. The page table itself lives in simulated physical memory and is
// covered by the PhysMem page image.
type HeapState struct {
	Brk    uint64
	Mapped uint64
}

// HeapSnapshot captures the heap cursor.
func (as *AddressSpace) HeapSnapshot() HeapState {
	return HeapState{Brk: as.brk, Mapped: as.mapped}
}

// SetHeapState rewinds the heap cursor to a captured state. The restore
// that comes with it can unmap pages, so the last-page memo of translate
// is dropped too.
func (as *AddressSpace) SetHeapState(s HeapState) {
	as.brk, as.mapped = s.Brk, s.Mapped
	as.lastKey = 0
}
