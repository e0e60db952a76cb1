package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuPackages are the layers whose CPU self-time shares the traced run
// reports, besides "gc" (collector work) and "other" (everything else:
// runtime, the benchmark's own code and the remaining internal packages).
// alloc is BAD's register and multiplexer estimator.
var cpuPackages = []string{"sched", "alloc", "urgency", "xfer", "ctrl", "wire", "stats", "lib", "dfg", "bad", "core", "advisor"}

// cpuShares reads a gzipped pprof CPU profile and returns each layer's
// share of the sampled CPU time. A sample is garbage collection when any
// frame is a runtime gc function; otherwise it counts toward the package
// of its innermost chop/internal frame, so allocation cost lands on the
// layer that allocated.
func cpuShares(gz []byte) (map[string]float64, error) {
	samples, err := parseProfile(gz)
	if err != nil {
		return nil, fmt.Errorf("read CPU profile: %w", err)
	}
	shares := map[string]float64{"gc": 0, "other": 0}
	for _, p := range cpuPackages {
		shares[p] = 0
	}
	var total float64
	for _, s := range samples {
		class := "other"
		for _, fn := range s.stack {
			if strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" || fn == "runtime.bgscavenge" {
				class = "gc"
				break
			}
		}
		if class == "other" {
			for _, fn := range s.stack {
				if rest, ok := strings.CutPrefix(fn, "chop/internal/"); ok {
					pkg := rest[:strings.IndexAny(rest+".", "./")]
					if _, listed := shares[pkg]; listed {
						class = pkg
					}
					break
				}
			}
		}
		shares[class] += s.value
		total += s.value
	}
	for k := range shares {
		shares[k] = ratio(shares[k], total)
	}
	return shares, nil
}

// sample is one profile sample: its stack as function names, innermost
// first (inlined frames expanded), and its last value (CPU nanoseconds).
type sample struct {
	stack []string
	value float64
}

// parseProfile decodes the subset of the pprof protobuf format
// (github.com/google/pprof/proto/profile.proto) a CPU profile needs:
// samples, locations with their line records, functions and the string
// table.
func parseProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Profile.sample
			var s rawSample
			err := fields(b, func(num int, v uint64, b []byte) error {
				var err error
				switch num {
				case 1: // Sample.location_id
					s.locs, err = appendVarints(s.locs, v, b)
				case 2: // Sample.value
					var us []uint64
					us, err = appendVarints(nil, v, b)
					for _, u := range us {
						s.values = append(s.values, int64(u))
					}
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // Profile.location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // Location.id
					id = v
				case 4: // Location.line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 { // Line.function_id
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Profile.function
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1: // Function.id
					id = v
				case 2: // Function.name
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // Profile.string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []sample
	for _, rs := range samples {
		if len(rs.values) == 0 {
			continue
		}
		s := sample{value: float64(rs.values[len(rs.values)-1])}
		for _, l := range rs.locs {
			for _, f := range locFns[l] {
				if i := fnName[f]; i >= 0 && int(i) < len(strs) {
					s.stack = append(s.stack, strs[i])
				}
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// fields walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes. Fixed-width
// fields are skipped.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, whether it came
// as one unpacked value v or a packed run in data.
func appendVarints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		u, n := binary.Uvarint(data)
		if n <= 0 {
			return dst, errors.New("bad packed varint")
		}
		dst, data = append(dst, u), data[n:]
	}
	return dst, nil
}
