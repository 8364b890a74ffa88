package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// A decoded pprof profile, reduced to what layer attribution needs: the
// stacks of its samples, innermost frame first, and one value per sample.
// The format is the gzipped protocol buffer runtime/pprof writes
// (github.com/google/pprof/proto/profile.proto); only the fields below are
// read.

// frame is one function of a stack.
type frame struct {
	fn   string // fully qualified function name
	file string // source file path
}

// sample is one profile sample.
type sample struct {
	stack []frame // innermost first, inlined frames expanded
	value int64
}

// Profile field numbers (profile.proto).
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocation = 1
	sampleValue    = 2

	locID   = 1
	locLine = 4

	lineFunction = 1

	fnID       = 1
	fnName     = 2
	fnFilename = 4

	vtType = 1
)

// decodeProfile parses a profile and returns its samples, taking each
// sample's value of the named sample type ("cpu", "alloc_space").
func decodeProfile(data []byte, valueType string) ([]sample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	type function struct{ name, file int64 }
	var (
		types   []int64
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs   = map[uint64]function{}
		strs    []string
	)
	err := walk(data, func(field int, v uint64, b []byte) error {
		switch field {
		case profSampleType:
			return walk(b, func(f int, v uint64, _ []byte) error {
				if f == vtType {
					types = append(types, int64(v))
				}
				return nil
			})
		case profSample:
			var s rawSample
			err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case sampleLocation:
					return varints(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case sampleValue:
					return varints(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case locID:
					id = v
				case locLine:
					return walk(b, func(f int, v uint64, _ []byte) error {
						if f == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case profFunction:
			var id uint64
			var fn function
			err := walk(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case fnID:
					id = v
				case fnName:
					fn.name = int64(v)
				case fnFilename:
					fn.file = int64(v)
				}
				return nil
			})
			funcs[id] = fn
			return err
		case profStringTable:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	vi := -1
	for i, t := range types {
		if str(t) == valueType {
			vi = i
		}
	}
	if vi < 0 {
		return nil, fmt.Errorf("profile has no %q sample type", valueType)
	}
	out := make([]sample, 0, len(samples))
	for _, rs := range samples {
		if vi >= len(rs.values) {
			return nil, errors.New("profile sample lacks a value")
		}
		s := sample{value: rs.values[vi]}
		for _, l := range rs.locs {
			for _, f := range locs[l] {
				fn := funcs[f]
				s.stack = append(s.stack, frame{fn: str(fn.name), file: str(fn.file)})
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// walk calls fn for every field of one protocol buffer message: v carries
// a varint field's value (or a length-delimited field's length), b a
// length-delimited field's bytes.
func walk(data []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		data = data[n:]
		field := int(key >> 3)
		var v uint64
		var b []byte
		switch key & 7 {
		case 0: // varint
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			data = data[n:]
		case 1: // fixed64
			if len(data) < 8 {
				return errors.New("profile: short fixed64")
			}
			data = data[8:]
			continue
		case 2: // length-delimited
			v, n = binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < v {
				return errors.New("profile: bad length")
			}
			b = data[n : n+int(v)]
			data = data[n+int(v):]
		case 5: // fixed32
			if len(data) < 4 {
				return errors.New("profile: short fixed32")
			}
			data = data[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", key&7)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints decodes a repeated integer field that may be packed (b holds the
// values) or not (v is the one value).
func varints(v uint64, b []byte, add func(uint64)) error {
	if b == nil {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}

// modulePrefix marks the emulator's own functions in a stack.
const modulePrefix = "macedon/internal/"

// gcLayer receives samples with no emulator frame: the collector's
// background work, the scheduler, and the profiler itself.
const gcLayer = "runtime.gc"

// cpuLayers are the buckets CPU self time is reported in; every sample
// lands in exactly one of them.
var cpuLayers = []string{
	"topology", "simnet.sched", "simnet.net", "transport", "core", "overlays",
	"overlay.codec", "overlay.hash", "statecopy", "harness", "obs", gcLayer,
}

// layerOf attributes a stack to the layer of its innermost emulator frame.
// Library code called from the emulator, such as SHA-1 under
// overlay.HashAddress or malloc under a transport send, counts against
// its caller's layer. The harness layer is the experiment driver: the
// harness package, the scenario compiler, and any emulator package no other
// layer claims.
func layerOf(stack []frame) string {
	for _, f := range stack {
		if !strings.HasPrefix(f.fn, modulePrefix) {
			continue
		}
		pkg := f.fn[len(modulePrefix):]
		if i := strings.IndexByte(pkg, '.'); i >= 0 {
			pkg = pkg[:i]
		}
		file := path.Base(f.file)
		switch {
		case pkg == "simnet" && file == "scheduler.go":
			return "simnet.sched"
		case pkg == "simnet":
			return "simnet.net"
		case pkg == "overlay" && file == "hash.go":
			return "overlay.hash"
		case pkg == "overlay" && file == "codec.go":
			return "overlay.codec"
		case pkg == "overlay", strings.HasPrefix(pkg, "overlays/"):
			// overlay.go holds the key-space arithmetic protocols
			// route with.
			return "overlays"
		case pkg == "topology", pkg == "transport", pkg == "core", pkg == "statecopy", pkg == "obs":
			return pkg
		}
		return "harness"
	}
	return gcLayer
}

// byLayer sums sample values per layer.
func byLayer(samples []sample) map[string]int64 {
	out := make(map[string]int64)
	for _, s := range samples {
		out[layerOf(s.stack)] += s.value
	}
	return out
}
