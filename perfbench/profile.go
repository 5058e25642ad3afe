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

// sample is one CPU-profile sample: its stack as function names, innermost
// first with inlined frames expanded in place, and its CPU time.
type sample struct {
	funcs  []string
	ns     int64
	labels map[string]string
}

// parseProfile decodes the gzipped profile.proto that runtime/pprof writes,
// keeping only what layer attribution needs. The repository has no
// third-party dependencies, github.com/google/pprof included, so this reads
// the handful of fields it needs by hand.
func parseProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
		labels [][2]uint64 // key, value string indexes
	}
	var (
		strs     []string
		types    [][2]uint64           // sample value (type, unit) string indexes
		funcName = map[uint64]uint64{} // function id -> name string index
		locFuncs = map[uint64][]uint64{}
		rawSamps []rawSample
	)
	err = fields(raw, func(num int, v uint64, data []byte) (err error) {
		switch num {
		case 1: // sample_type
			var t [2]uint64
			err = fields(data, func(n int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					t[n-1] = v
				}
				return nil
			})
			types = append(types, t)
		case 2: // sample
			var s rawSample
			err = fields(data, func(n int, v uint64, d []byte) (err error) {
				switch n {
				case 1:
					s.locs, err = varints(s.locs, v, d)
				case 2:
					s.values, err = varints(s.values, v, d)
				case 3:
					var kv [2]uint64
					err = fields(d, func(n int, v uint64, _ []byte) error {
						if n == 1 || n == 2 {
							kv[n-1] = v
						}
						return nil
					})
					s.labels = append(s.labels, kv)
				}
				return err
			})
			rawSamps = append(rawSamps, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err = fields(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line, innermost inlined frame first
					return fields(d, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
		case 5: // function
			var id, name uint64
			err = fields(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpu := -1
	for i, t := range types {
		if str(t[0]) == "cpu" && str(t[1]) == "nanoseconds" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu/nanoseconds sample type")
	}
	out := make([]sample, 0, len(rawSamps))
	for _, rs := range rawSamps {
		if cpu >= len(rs.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		s := sample{ns: int64(rs.values[cpu])}
		for _, loc := range rs.locs {
			for _, fn := range locFuncs[loc] {
				s.funcs = append(s.funcs, str(funcName[fn]))
			}
		}
		for _, kv := range rs.labels {
			if s.labels == nil {
				s.labels = map[string]string{}
			}
			s.labels[str(kv[0])] = str(kv[1])
		}
		out = append(out, s)
	}
	return out, nil
}

// fields calls f for each field of a protobuf message: v holds a varint
// field's value, data a length-delimited field's bytes. Fixed-width fields
// are skipped; profile.proto uses none that attribution needs.
func fields(b []byte, f func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num := int(key >> 3)
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("truncated length-delimited field")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := f(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// varints appends a repeated varint field's values, which an encoder may
// write one per field (v) or packed into one length-delimited field (data).
func varints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}

// modulePrefix marks the repository's own packages in function names.
const modulePrefix = "repro/internal/"

// layerOf names the layer a stack's CPU time belongs to: the package of
// its innermost repro/internal frame, counting inlined frames as their own
// package's (cache.(*L1).Access inlines into core), or "runtime" when no
// such frame is on the stack (scheduler, GC workers). Apps are one layer.
func layerOf(funcs []string) string {
	for _, fn := range funcs {
		if rest, ok := strings.CutPrefix(fn, modulePrefix); ok {
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				return rest[:i]
			}
			return rest
		}
	}
	return "runtime"
}

// attribute sums the samples' CPU time by layer.
func attribute(samples []sample) map[string]int64 {
	by := map[string]int64{}
	for _, s := range samples {
		by[layerOf(s.funcs)] += s.ns
	}
	return by
}
