package vm_test

import (
	"bytes"
	"math/rand"
	"testing"

	"gpummu/internal/vm"
)

// physModel is the reference PhysMem: a plain map from 4 KB frame number
// to page contents, where an absent frame reads as zeroes.
type physModel map[uint64]*[vm.PageSize4K]byte

func (r physModel) page(pa uint64) *[vm.PageSize4K]byte {
	fn := pa >> vm.PageShift4K
	p := r[fn]
	if p == nil {
		p = new([vm.PageSize4K]byte)
		r[fn] = p
	}
	return p
}

func (r physModel) read(pa uint64, n int) uint64 {
	p := r[pa>>vm.PageShift4K]
	if p == nil {
		return 0
	}
	off := pa & (vm.PageSize4K - 1)
	var v uint64
	for i := n - 1; i >= 0; i-- {
		v = v<<8 | uint64(p[off+uint64(i)])
	}
	return v
}

func (r physModel) write(pa uint64, n int, v uint64) {
	p := r.page(pa)
	off := pa & (vm.PageSize4K - 1)
	for i := 0; i < n; i++ {
		p[off+uint64(i)] = byte(v >> (8 * i))
	}
}

func (r physModel) clone() physModel {
	c := make(physModel, len(r))
	for fn, p := range r {
		cp := *p
		c[fn] = &cp
	}
	return c
}

// modelFrames returns the frame numbers the model test draws from: runs
// that agree in their low bits and differ only high up, runs of adjacent
// frames that agree in their high bits, frames from the scrambling
// allocator (4 KB frames and the 4 KB frames of 2 MB superframes), and
// enough of them in total to force the page store through several
// resizes.
func modelFrames(rng *rand.Rand) []uint64 {
	var fs []uint64
	for i := uint64(0); i < 64; i++ {
		fs = append(fs, i<<24|0x5)    // same low 24 bits
		fs = append(fs, i<<40|0x1234) // same low 40 bits
		fs = append(fs, 0xABC00000+i) // same high bits, adjacent
	}
	alloc := vm.NewFrameAllocator(1 << 20)
	for i := 0; i < 1500; i++ {
		fs = append(fs, alloc.Alloc4K()>>vm.PageShift4K)
	}
	for i := 0; i < 2; i++ {
		super := alloc.Alloc2M() >> vm.PageShift4K
		for f := uint64(0); f < vm.PageSize2M/vm.PageSize4K; f += 3 {
			fs = append(fs, super+f)
		}
	}
	for i := 0; i < 300; i++ {
		fs = append(fs, rng.Uint64()>>vm.PageShift4K)
	}
	return fs
}

// TestPhysMemMatchesModel drives PhysMem and the plain-map reference with
// the same random operations — byte, word and double-word reads and
// writes, page views, and snapshot/restore rounds that materialise frames
// after the snapshot — and requires every observation to agree.
func TestPhysMemMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	frames := modelFrames(rng)
	m := vm.NewPhysMem()
	ref := physModel{}

	// active is the prefix of frames the current round draws from; each
	// round widens it, so frames first written after a snapshot exist.
	active := len(frames) / 4
	randPA := func(align uint64) uint64 {
		fn := frames[rng.Intn(active)]
		return fn<<vm.PageShift4K | uint64(rng.Intn(vm.PageSize4K))&^(align-1)
	}
	checkPage := func(fn uint64) {
		t.Helper()
		pa := fn << vm.PageShift4K
		got := m.PageBytes(pa)
		want := ref[fn]
		if want == nil {
			if got != nil {
				t.Fatalf("frame %#x: PageBytes returned a page for an unwritten frame", fn)
			}
			return
		}
		if !bytes.Equal(got, want[:]) {
			t.Fatalf("frame %#x: PageBytes differs from the model", fn)
		}
	}
	checkAll := func(when string) {
		t.Helper()
		if got, want := m.BackedPages(), len(ref); got != want {
			t.Fatalf("%s: BackedPages %d, model has %d", when, got, want)
		}
		for _, fn := range frames {
			checkPage(fn)
		}
	}
	ops := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			switch rng.Intn(9) {
			case 0:
				pa, v := randPA(8), rng.Uint64()
				m.Write64(pa, v)
				ref.write(pa, 8, v)
			case 1:
				pa, v := randPA(4), rng.Uint32()
				m.Write32(pa, v)
				ref.write(pa, 4, uint64(v))
			case 2:
				pa, v := randPA(1), byte(rng.Intn(256))
				m.WriteU8(pa, v)
				ref.write(pa, 1, uint64(v))
			case 3:
				pa := randPA(8)
				if got, want := m.Read64(pa), ref.read(pa, 8); got != want {
					t.Fatalf("Read64(%#x) = %#x, model %#x", pa, got, want)
				}
			case 4:
				pa := randPA(4)
				if got, want := m.Read32(pa), ref.read(pa, 4); uint64(got) != want {
					t.Fatalf("Read32(%#x) = %#x, model %#x", pa, got, want)
				}
			case 5:
				pa := randPA(1)
				if got, want := m.ReadU8(pa), ref.read(pa, 1); uint64(got) != want {
					t.Fatalf("ReadU8(%#x) = %#x, model %#x", pa, got, want)
				}
			case 6:
				pa, v := randPA(1), byte(rng.Intn(256))
				p := m.MutablePageBytes(pa)
				if len(p) != vm.PageSize4K {
					t.Fatalf("MutablePageBytes(%#x) has %d bytes", pa, len(p))
				}
				p[pa&(vm.PageSize4K-1)] = v
				ref.write(pa, 1, uint64(v))
			case 7:
				checkPage(frames[rng.Intn(active)])
			case 8:
				if got, want := m.BackedPages(), len(ref); got != want {
					t.Fatalf("BackedPages %d, model has %d", got, want)
				}
			}
		}
	}

	ops(20000)
	checkAll("before the first snapshot")
	for round := 0; round < 4; round++ {
		img := m.SnapshotPages()
		if len(img) != len(ref) {
			t.Fatalf("round %d: snapshot holds %d pages, model has %d", round, len(img), len(ref))
		}
		saved := ref.clone()
		before := len(ref)
		active = min(len(frames), active+len(frames)/4)
		ops(20000)
		if len(ref) <= before {
			t.Fatalf("round %d: no frame materialised after the snapshot; test is vacuous", round)
		}
		checkAll("after the snapshot")
		m.RestorePages(img)
		ref = saved
		checkAll("after the restore")
		// A restore must leave every page clean: restoring again, with
		// only reads in between, changes nothing.
		for _, fn := range frames[:active] {
			m.Read64(fn << vm.PageShift4K)
		}
		m.RestorePages(img)
		checkAll("after a second restore")
		ops(5000)
	}
	if len(ref) < 1000 {
		t.Fatalf("model holds only %d frames; too few to force several resizes", len(ref))
	}
}
