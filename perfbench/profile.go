package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// The traced run profiles its own process and charges each CPU sample to
// the innermost frame that belongs to a gpummu/internal/<module> package:
// a map lookup inside vm.PhysMem counts as "vm", an allocation made by the
// gpu package as "gpu". Samples with no such frame go to "gc" when a GC
// worker is on the stack and to "runtime" otherwise (scheduler, syscalls,
// net/http, the benchmark itself).

// shareModules are the modules whose share of samples the benchmark reports
// as cpu.<module>_share.
var shareModules = []string{
	"experiments", "workloads", "gpu", "core", "mem", "engine", "vm",
	"stats", "service", "gc", "runtime",
}

const internalPrefix = "gpummu/internal/"

// moduleOf buckets one sample's stack, innermost frame first.
func moduleOf(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
	}
	for _, fn := range stack {
		if isGCFrame(fn) {
			return "gc"
		}
	}
	return "runtime"
}

// isGCFrame reports whether fn is collector work that runs outside any
// gpummu frame: background marking, sweeping and scavenging.
func isGCFrame(fn string) bool {
	switch fn {
	case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.markroot", "runtime.scanobject", "runtime.sweepone":
		return true
	}
	return strings.HasPrefix(fn, "runtime.gcDrain") || strings.HasPrefix(fn, "runtime.gcMark") ||
		strings.HasPrefix(fn, "runtime.gcStart")
}

// profileSample is one decoded CPU sample: its stack (innermost first,
// inlined frames expanded), its pprof labels and its sample count.
type profileSample struct {
	stack  []string
	labels map[string]string
	count  int64
}

// cpuShares counts samples by module, overall and per value of one pprof
// label.
type cpuShares struct {
	total   int64
	modules map[string]int64
	byLabel map[string]*cpuShares
}

func newCPUShares() *cpuShares {
	return &cpuShares{modules: map[string]int64{}, byLabel: map[string]*cpuShares{}}
}

// bucket charges samples to modules; label names the pprof label whose
// values get their own breakdown ("" for none).
func bucket(samples []profileSample, label string) *cpuShares {
	s := newCPUShares()
	for _, smp := range samples {
		mod := moduleOf(smp.stack)
		s.total += smp.count
		s.modules[mod] += smp.count
		if v, ok := smp.labels[label]; ok && label != "" {
			sub := s.byLabel[v]
			if sub == nil {
				sub = newCPUShares()
				s.byLabel[v] = sub
			}
			sub.total += smp.count
			sub.modules[mod] += smp.count
		}
	}
	return s
}

func (s *cpuShares) share(module string) float64 {
	return ratio(float64(s.modules[module]), float64(s.total))
}

// line renders the shares of every reported module.
func (s *cpuShares) line() string {
	var b strings.Builder
	fmt.Fprintf(&b, "samples=%d", s.total)
	for _, m := range shareModules {
		fmt.Fprintf(&b, " %s=%.3f", m, s.share(m))
	}
	return b.String()
}

// addShares reports each module's share of the profile's samples.
func addShares(m *metrics, s *cpuShares) {
	for _, mod := range shareModules {
		m.add(fmt.Sprintf("cpu.%s_share", mod), s.share(mod))
	}
}

// profiled runs fn, under a CPU profile of this process when on, and
// returns the samples' shares by module (nil when off).
func profiled(on bool, label string, fn func()) (*cpuShares, error) {
	if !on {
		fn()
		return nil, nil
	}
	p, err := startProfiler()
	if err != nil {
		return nil, err
	}
	fn()
	samples, err := p.stop()
	if err != nil {
		return nil, err
	}
	return bucket(samples, label), nil
}

// profiler records a CPU profile of this process into memory.
type profiler struct{ buf bytes.Buffer }

func startProfiler() (*profiler, error) {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and returns its samples.
func (p *profiler) stop() ([]profileSample, error) {
	pprof.StopCPUProfile()
	return parseProfile(p.buf.Bytes())
}

// parseProfile decodes a gzipped pprof protobuf (profile.proto) far enough
// to recover each sample's stack, labels and first value.
func parseProfile(gz []byte) ([]profileSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		value  int64
		labels [][2]int64 // string-table indices of key and value
	}
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location → function ids, innermost first
		funcs   = map[uint64]int64{}    // function → name index
		strs    []string
	)
	err = walkProto(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s rawSample
			var values []uint64
			err := walkProto(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendUints(s.locs, v, b)
				case 2:
					values = appendUints(values, v, b)
				case 3:
					var kv [2]int64
					err := walkProto(b, func(f int, v uint64, _ []byte) error {
						if f == 1 || f == 2 {
							kv[f-1] = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			if len(values) > 0 {
				s.value = int64(values[0])
			}
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := walkProto(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return walkProto(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := walkProto(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	out := make([]profileSample, 0, len(samples))
	for _, s := range samples {
		ps := profileSample{count: s.value, labels: map[string]string{}}
		for _, l := range s.locs {
			for _, fn := range locs[l] {
				ps.stack = append(ps.stack, str(funcs[fn]))
			}
		}
		for _, kv := range s.labels {
			ps.labels[str(kv[0])] = str(kv[1])
		}
		out = append(out, ps)
	}
	return out, nil
}

// walkProto calls fn for each field of a protobuf message: v holds varint
// and fixed-width values, b the bytes of length-delimited ones.
func walkProto(data []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad field key")
		}
		data = data[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errors.New("bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("short fixed64")
			}
			v, data = binary.LittleEndian.Uint64(data), data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("bad length")
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("short fixed32")
			}
			v, data = uint64(binary.LittleEndian.Uint32(data)), data[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated integer field that arrives either as one
// varint (v, b nil) or packed (b).
func appendUints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
