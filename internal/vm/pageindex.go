package vm

import "math/bits"

// pageIndex maps page numbers to values with open addressing. It is the
// lookup structure behind PhysMem (frame number -> *physPage) and
// Translator (VPN -> Translation), both on every functional access, so it
// is built for hits: one multiply, one shift and usually one slot.
//
// A slot's key is the page number plus one, so the zero key marks an
// empty slot and a fresh table needs no initialisation. The table size is
// a power of two; a key's home slot is the top bits of its Fibonacci hash
// (key times 2^64/phi), and collisions probe linearly. The table doubles
// before an insert would take it past half full, which keeps probe runs
// short. Lookups never write, so any number of goroutines may read an
// index that nobody is inserting into. Entries are never deleted one by
// one: retain rebuilds the table from the survivors, so no tombstones are
// needed.
type pageIndex[V any] struct {
	slots []pageSlot[V]
	n     int  // occupied slots
	shift uint // 64 - log2(len(slots))
}

type pageSlot[V any] struct {
	key uint64 // page number + 1; 0 = empty
	val V
}

const (
	pageIndexMinSlots = 16
	fibonacciHash     = 0x9E3779B97F4A7C15 // 2^64 / golden ratio
)

func newPageIndex[V any]() pageIndex[V] {
	var x pageIndex[V]
	x.rehash(pageIndexMinSlots)
	return x
}

// count reports how many page numbers the index holds.
func (x *pageIndex[V]) count() int { return x.n }

// find returns the value stored for page number pn, or nil when pn is
// absent. The pointer is valid until the next insert or retain.
func (x *pageIndex[V]) find(pn uint64) *V {
	key := pn + 1
	mask := uint64(len(x.slots) - 1)
	for i := key * fibonacciHash >> x.shift; ; i = (i + 1) & mask {
		s := &x.slots[i]
		if s.key == key {
			return &s.val
		}
		if s.key == 0 {
			return nil
		}
	}
}

// insert stores v for page number pn, which must be absent: both users
// insert only after find missed.
func (x *pageIndex[V]) insert(pn uint64, v V) {
	if 2*(x.n+1) > len(x.slots) {
		x.rehash(2 * len(x.slots))
	}
	x.place(pageSlot[V]{key: pn + 1, val: v})
	x.n++
}

// place puts s into the first free slot of its probe run.
func (x *pageIndex[V]) place(s pageSlot[V]) {
	mask := uint64(len(x.slots) - 1)
	i := s.key * fibonacciHash >> x.shift
	for x.slots[i].key != 0 {
		i = (i + 1) & mask
	}
	x.slots[i] = s
}

// each calls f for every entry, in slot order.
func (x *pageIndex[V]) each(f func(pn uint64, v *V)) {
	for i := range x.slots {
		if s := &x.slots[i]; s.key != 0 {
			f(s.key-1, &s.val)
		}
	}
}

// retain calls keep once for every entry and drops those it rejects. When
// anything is dropped the table is rebuilt at its current size from the
// survivors.
func (x *pageIndex[V]) retain(keep func(pn uint64, v *V) bool) {
	dropped := false
	for i := range x.slots {
		if s := &x.slots[i]; s.key != 0 && !keep(s.key-1, &s.val) {
			*s = pageSlot[V]{}
			x.n--
			dropped = true
		}
	}
	if dropped {
		x.rehash(len(x.slots))
	}
}

// rehash moves every entry into a fresh table of size slots, a power of
// two.
func (x *pageIndex[V]) rehash(size int) {
	old := x.slots
	x.slots = make([]pageSlot[V], size)
	x.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s.key != 0 {
			x.place(s)
		}
	}
}
