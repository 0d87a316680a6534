package vm

import "fmt"

// AddressSpace is a process-like virtual address space: a page table plus a
// bump-allocated heap. Workloads build their data structures here before a
// kernel launches, and the GPU then accesses the same unified address space
// — the property the paper's MMU work exists to support.
type AddressSpace struct {
	Mem   *PhysMem
	PT    *PageTable
	alloc *FrameAllocator

	brk       uint64 // next unallocated virtual address
	pageShift uint   // mapping granularity: PageShift4K or PageShift2M
	mapped    uint64 // bytes of virtual memory mapped

	// The last page translate resolved: its page number + 1 (0 = none) at
	// granularity 1<<lastShift, and its physical base. Mappings are only
	// ever added, except by a snapshot restore, which goes through
	// SetHeapState and clears this.
	lastKey   uint64
	lastShift uint
	lastBase  uint64
}

// heapBase is where the simulated heap starts; it is far from zero so that
// high-order VA bits exercise all four page table levels realistically.
const heapBase = 0x0000_5C00_0000_0000

// NewAddressSpace creates a space backed by mem and alloc, mapping the heap
// with pages of 1<<pageShift bytes (PageShift4K or PageShift2M).
func NewAddressSpace(mem *PhysMem, alloc *FrameAllocator, pageShift uint) *AddressSpace {
	if pageShift != PageShift4K && pageShift != PageShift2M {
		panic("vm: unsupported page shift")
	}
	return &AddressSpace{
		Mem:       mem,
		PT:        NewPageTable(mem, alloc),
		alloc:     alloc,
		brk:       heapBase,
		pageShift: pageShift,
		lastShift: pageShift, // keeps va>>lastShift+1 nonzero for every va
	}
}

// PageShift reports the mapping granularity of this space.
func (as *AddressSpace) PageShift() uint { return as.pageShift }

// Alloc returns the frame allocator backing this space (snapshot capture
// and restore need its cursors).
func (as *AddressSpace) Alloc() *FrameAllocator { return as.alloc }

// HeapBase returns the virtual address where the heap starts (the base of
// the first Malloc). Reference-model digests iterate mappings from here.
func (as *AddressSpace) HeapBase() uint64 { return heapBase }

// MappedBytes reports how much virtual memory has been mapped.
func (as *AddressSpace) MappedBytes() uint64 { return as.mapped }

// Malloc reserves size bytes of fresh, eagerly mapped virtual memory and
// returns its base address. Allocations are page-aligned and padded to a
// whole number of pages; an extra guard page of slack separates allocations
// so off-by-one kernels fault loudly instead of corrupting neighbours.
func (as *AddressSpace) Malloc(size uint64) uint64 {
	if size == 0 {
		size = 1
	}
	pageSize := uint64(1) << as.pageShift
	base := (as.brk + pageSize - 1) &^ (pageSize - 1)
	pages := (size + pageSize - 1) / pageSize
	for i := uint64(0); i < pages; i++ {
		va := base + i*pageSize
		var err error
		if as.pageShift == PageShift2M {
			err = as.PT.Map2M(va, as.alloc.Alloc2M())
		} else {
			err = as.PT.Map4K(va, as.alloc.Alloc4K())
		}
		if err != nil {
			panic(fmt.Sprintf("vm: Malloc mapping failed: %v", err))
		}
	}
	as.mapped += pages * pageSize
	as.brk = base + (pages+1)*pageSize // +1 page of guard slack
	return base
}

// translate returns the physical address of va, walking the page table
// only when va is off the page it translated last.
func (as *AddressSpace) translate(va uint64) uint64 {
	if va>>as.lastShift+1 == as.lastKey {
		return as.lastBase | va&(1<<as.lastShift-1)
	}
	t, err := as.PT.Walk(va)
	if err != nil {
		panic(fmt.Sprintf("vm: access to unmapped va %#x", va))
	}
	as.lastKey, as.lastShift, as.lastBase = va>>t.PageShift+1, t.PageShift, t.PageBase()
	return t.PA
}

// Write64 stores a 64-bit value at virtual address va.
func (as *AddressSpace) Write64(va, val uint64) { as.Mem.Write64(as.translate(va), val) }

// Read64 loads a 64-bit value from virtual address va.
func (as *AddressSpace) Read64(va uint64) uint64 { return as.Mem.Read64(as.translate(va)) }

// Write32 stores a 32-bit value at virtual address va.
func (as *AddressSpace) Write32(va uint64, val uint32) { as.Mem.Write32(as.translate(va), val) }

// Read32 loads a 32-bit value from virtual address va.
func (as *AddressSpace) Read32(va uint64) uint32 { return as.Mem.Read32(as.translate(va)) }

// WriteU8 stores one byte at virtual address va.
func (as *AddressSpace) WriteU8(va uint64, val byte) { as.Mem.WriteU8(as.translate(va), val) }

// ReadU8 loads one byte from virtual address va.
func (as *AddressSpace) ReadU8(va uint64) byte { return as.Mem.ReadU8(as.translate(va)) }
