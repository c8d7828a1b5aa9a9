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

// cpuLayers are the repo modules a CPU sample can be charged to, in the
// order the cpu.* metrics are reported. "gc" takes samples of the Go
// collector; "other" takes samples with no frame of a listed module (the
// Go scheduler, the profiler, the benchmark itself).
var cpuLayers = []string{
	"scenario", "vtime", "netsim", "packet", "ntp", "ntpd", "attack",
	"ispview", "darknet", "telemetry", "honeypot", "detect", "sketch",
	"scan", "core", "stats", "asdb", "report",
	"timesync", "timeattack", "gc", "other",
}

// gcFrames mark a sample as collector work wherever they appear in its
// stack: background and assist marking, and sweeping.
var gcFrames = []string{
	"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
	"runtime.(*sweepLocked).sweep", "runtime.(*mheap).reclaim", "runtime.markroot",
}

// layerOf maps a function name from a profile to its cpu layer. Only
// listed modules count: helper packages (netaddr, rng, geo, pbl, ...),
// the runtime and the standard library are transparent, so their time is
// charged to the nearest listed caller. The root ntpddos package builds
// the paper's tables and is charged to report.
func layerOf(fn string) (string, bool) {
	slash := strings.LastIndexByte(fn, '/')
	pkg := fn
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	if pkg == "ntpddos" {
		return "report", true
	}
	name, ok := strings.CutPrefix(pkg, "ntpddos/internal/")
	if !ok {
		return "", false
	}
	name, _, _ = strings.Cut(name, "/")
	for _, l := range cpuLayers[:len(cpuLayers)-2] { // all but gc and other
		if l == name {
			return l, true
		}
	}
	return "", false
}

func isGC(fn string) bool {
	for _, p := range gcFrames {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// cpuShares attributes every sample of a gzipped CPU profile in the
// runtime/pprof format: a sample whose stack holds a collector frame is
// gc, otherwise it belongs to the innermost frame of a listed module, else
// to other. It returns each layer's share of all samples in percent and
// the sample count.
func cpuShares(gz []byte) (map[string]float64, int64, error) {
	stacks, err := decodeProfile(gz)
	if err != nil {
		return nil, 0, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range stacks {
		counts[attribute(s.frames)] += s.count
		total += s.count
	}
	if total == 0 {
		return nil, 0, errors.New("cpu profile holds no samples")
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		shares[l] = 100 * float64(counts[l]) / float64(total)
	}
	return shares, total, nil
}

// attribute charges one stack, innermost frame first.
func attribute(frames []string) string {
	for _, f := range frames {
		if isGC(f) {
			return "gc"
		}
	}
	for _, f := range frames {
		if l, ok := layerOf(f); ok {
			return l
		}
	}
	return "other"
}

// stack is one profile sample: its frames, innermost first, and its count.
type stack struct {
	frames []string
	count  int64
}

// Field numbers of the profile.proto messages runtime/pprof writes.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocation = 1
	sampleValue    = 2

	locationID   = 1
	locationLine = 4

	lineFunction = 1

	functionID   = 1
	functionName = 2
)

// decodeProfile reads the parts of a profile.proto message that
// attribution needs. Inlined calls appear as several lines of one
// location, innermost first, and are expanded in place.
func decodeProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs, values []uint64
	}
	var (
		samples   []sample
		strs      []string
		funcNames = map[uint64]int64{}    // function id -> string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case profSample:
			var s sample
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case sampleLocation:
					s.locs = appendUints(s.locs, v, b)
				case sampleValue:
					s.values = appendUints(s.values, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case profLocation:
			var id uint64
			var fns []uint64
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case profFunction:
			var id uint64
			var name int64
			if err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcNames[id] = name
		case profStringTable:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		st := stack{count: int64(s.values[0])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcNames[fn]; i >= 0 && i < int64(len(strs)) {
					st.frames = append(st.frames, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped; runtime/pprof writes none that matter.
func eachField(buf []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("bad field key")
		}
		buf = buf[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errors.New("bad varint")
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errors.New("short fixed64")
			}
			buf = buf[8:]
			continue
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || l > uint64(len(buf)-n) {
				return errors.New("bad length")
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errors.New("short fixed32")
			}
			buf = buf[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated varint field, which the encoder writes
// either as one value (v, b nil) or packed into b.
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
