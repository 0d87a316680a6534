package stats

import (
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
}

func TestLatencyAccum(t *testing.T) {
	var l LatencyAccum
	if l.Mean() != 0 {
		t.Fatal("empty mean not zero")
	}
	l.Observe(10)
	l.Observe(30)
	if l.Mean() != 20 || l.Max != 30 || l.Events != 2 {
		t.Fatalf("accum = %+v", l)
	}
}

func TestHistBasics(t *testing.T) {
	var h Hist
	for _, v := range []int{1, 1, 2, 4, 8} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Max() != 8 {
		t.Fatalf("count=%d max=%d", h.Count(), h.Max())
	}
	if h.Mean() != 16.0/5 {
		t.Fatalf("mean = %f", h.Mean())
	}
	if h.Bucket(1) != 2 || h.Bucket(3) != 0 || h.Bucket(99) != 0 {
		t.Fatal("bucket counts wrong")
	}
	if h.Percentile(0.5) != 2 {
		t.Fatalf("p50 = %d", h.Percentile(0.5))
	}
	if h.Percentile(1.0) != 8 {
		t.Fatalf("p100 = %d", h.Percentile(1.0))
	}
}

func TestHistNegativePanics(t *testing.T) {
	var h Hist
	defer func() {
		if recover() == nil {
			t.Fatal("negative sample accepted")
		}
	}()
	h.Observe(-1)
}

// TestHistObserveN: ObserveN(v, n) leaves the histogram in exactly the state
// n calls to Observe(v) do — buckets, count, sum, max, mean and the JSON
// bytes — and n == 0 changes nothing, not even the bucket length goldens
// depend on.
func TestHistObserveN(t *testing.T) {
	cases := []struct {
		name  string
		prior []int // samples observed one at a time first
		v     int
		n     uint64
	}{
		{"empty-zero-n", nil, 5, 0},
		{"empty-one", nil, 0, 1},
		{"empty-many", nil, 7, 40},
		{"grows-buckets", []int{1, 2}, 32, 3},
		{"below-max", []int{3, 9}, 4, 6},
		{"zero-n-past-max", []int{3}, 12, 0},
		{"repeat-max", []int{6}, 6, 1000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var batched, single Hist
			for _, v := range tc.prior {
				batched.Observe(v)
				single.Observe(v)
			}
			batched.ObserveN(tc.v, tc.n)
			for i := uint64(0); i < tc.n; i++ {
				single.Observe(tc.v)
			}
			if len(batched.buckets) != len(single.buckets) {
				t.Fatalf("bucket length %d, want %d", len(batched.buckets), len(single.buckets))
			}
			for v := range single.buckets {
				if batched.buckets[v] != single.buckets[v] {
					t.Fatalf("bucket %d = %d, want %d", v, batched.buckets[v], single.buckets[v])
				}
			}
			if batched.count != single.count || batched.sum != single.sum || batched.max != single.max {
				t.Fatalf("count/sum/max = %d/%d/%d, want %d/%d/%d", batched.count, batched.sum,
					batched.max, single.count, single.sum, single.max)
			}
			if batched.Mean() != single.Mean() {
				t.Fatalf("mean = %v, want %v", batched.Mean(), single.Mean())
			}
			got, err := json.Marshal(batched)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(single)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("JSON = %s, want %s", got, want)
			}
		})
	}
	for _, n := range []uint64{0, 1, 5} {
		func() {
			var h Hist
			defer func() {
				if recover() == nil {
					t.Fatalf("ObserveN(-1, %d) accepted a negative sample", n)
				}
			}()
			h.ObserveN(-1, n)
		}()
	}
}

// TestHistSumMatchesQuick: the histogram's internal sum and count track
// exactly for any sample sequence, and buckets total the count.
func TestHistSumMatchesQuick(t *testing.T) {
	f := func(samples []uint8) bool {
		var h Hist
		var sum uint64
		for _, s := range samples {
			h.Observe(int(s))
			sum += uint64(s)
		}
		var bucketTotal uint64
		for v := 0; v <= h.Max(); v++ {
			bucketTotal += h.Bucket(v)
		}
		return h.sum == sum && h.Count() == uint64(len(samples)) && bucketTotal == h.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSimDerivedRates(t *testing.T) {
	s := &Sim{}
	if s.TLBMissRate() != 0 || s.L1MissRate() != 0 || s.MemFraction() != 0 {
		t.Fatal("empty rates not zero")
	}
	s.TLBAccesses = 100
	s.TLBMisses = 25
	s.Instructions = 200
	s.MemInstrs = 50
	s.L1Accesses = 80
	s.L1Misses = 40
	s.WalkRefs = 90
	s.WalkRefsCoalesced = 10
	if s.TLBMissRate() != 0.25 || s.L1MissRate() != 0.5 || s.MemFraction() != 0.25 {
		t.Fatalf("rates = %f %f %f", s.TLBMissRate(), s.L1MissRate(), s.MemFraction())
	}
	if s.WalkRefsEliminated() != 0.1 {
		t.Fatalf("eliminated = %f", s.WalkRefsEliminated())
	}
	if !strings.Contains(s.String(), "missrate") {
		t.Fatal("summary missing fields")
	}
}

func TestSimCloneIsIndependent(t *testing.T) {
	var s Sim
	s.Cycles = 100
	s.Instructions.Add(7)
	s.PageDivergence.Observe(3)
	s.ActiveLanes.Observe(8)
	c := s.Clone()
	if c.Cycles != 100 || c.Instructions.Value() != 7 || c.PageDivergence.Mean() != 3 {
		t.Fatalf("clone lost data: %+v", c)
	}
	// Mutating the original must not leak into the clone (shared buckets
	// would), and vice versa.
	s.PageDivergence.Observe(1)
	s.Cycles = 999
	if c.PageDivergence.Count() != 1 || c.PageDivergence.Mean() != 3 || c.Cycles != 100 {
		t.Fatalf("clone shares state with original: %+v", c.PageDivergence)
	}
	c.ActiveLanes.Observe(2)
	if s.ActiveLanes.Count() != 1 {
		t.Fatal("original shares state with clone")
	}
}

func TestHistClone(t *testing.T) {
	var h Hist
	for _, v := range []int{1, 4, 4, 9} {
		h.Observe(v)
	}
	c := h.Clone()
	if c.Count() != 4 || c.Max() != 9 || c.Bucket(4) != 2 {
		t.Fatalf("clone = %+v", c)
	}
	h.Observe(20)
	if c.Max() != 9 || c.Count() != 4 {
		t.Fatal("clone tracks original")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("name", "value")
	tbl.AddRow("aa", 1.5)
	tbl.AddRow("b", 10)
	out := tbl.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "name") || !strings.Contains(lines[2], "1.500") {
		t.Fatalf("bad render:\n%s", out)
	}
	tbl.SortByColumn(0)
	if !strings.HasPrefix(strings.TrimSpace(strings.Split(tbl.String(), "\n")[2]), "aa") {
		t.Fatal("sort broke ordering")
	}
}
