package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
)

// Host time and allocations are credited to the module a request was in:
// the innermost rackblox/internal/<module> frame of each stack. Runtime
// and standard-library frames below it (malloc, map growth, GC assists)
// count for that module; stacks with no module frame go to the Go
// runtime's background GC workers or to "other" (benchmark code,
// scavenger, scheduler).
var modules = []string{
	"core", "sim", "switchsim", "ssd", "flash", "vssd", "sched", "predictor",
	"netsim", "replication", "ec", "workload", "stats", "trace",
}

const (
	bgGCModule    = "runtime_bg_gc"
	otherModule   = "other"
	internalPrefx = "rackblox/internal/"
)

// moduleOf attributes one stack, given innermost frame first.
func moduleOf(funcs []string) string {
	for _, fn := range funcs {
		rest, ok := strings.CutPrefix(fn, internalPrefx)
		if !ok {
			continue
		}
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		for _, m := range modules {
			if m == rest {
				return m
			}
		}
		return otherModule
	}
	for _, fn := range funcs {
		if fn == "runtime.gcBgMarkWorker" {
			return bgGCModule
		}
	}
	return otherModule
}

// cpuSamples decodes a gzipped pprof CPU profile as written by
// runtime/pprof and adds its sample counts per module to into.
func cpuSamples(profile []byte, into map[string]float64) error {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, s := range p.samples {
		var funcs []string
		for _, loc := range s.locs {
			for _, fid := range p.locLines[loc] {
				funcs = append(funcs, p.strings[p.funcName[fid]])
			}
		}
		if len(s.values) > 0 {
			into[moduleOf(funcs)] += float64(s.values[0])
		}
	}
	return nil
}

type pprofSample struct {
	locs   []uint64
	values []int64
}

// pprofProfile holds the parts of profile.proto the attribution needs.
type pprofProfile struct {
	samples  []pprofSample
	locLines map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

// decodeProfile parses the protobuf wire format of a pprof profile:
// samples (field 2), locations (4), functions (5) and the string
// table (6).
func decodeProfile(b []byte) (*pprofProfile, error) {
	p := &pprofProfile{locLines: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, msg []byte) error {
		switch num {
		case 2:
			var s pprofSample
			err := eachField(msg, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					return appendPacked(&s.locs, v, data)
				case 2:
					var vals []uint64
					if err := appendPacked(&vals, v, data); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var funcs []uint64
			err := eachField(msg, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locLines[id] = funcs
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(msg, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("function name outside the string table")
		}
	}
	return p, nil
}

// eachField walks one protobuf message, handing each field's number with
// its varint value (wire type 0) or its bytes (wire type 2).
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, packed or not.
func appendPacked(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// heapProfile snapshots the runtime's sampled allocation records, keyed by
// stack. runtime.GC first publishes every allocation made so far.
func heapProfile() map[[32]uintptr]runtime.MemProfileRecord {
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+50)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	out := make(map[[32]uintptr]runtime.MemProfileRecord, len(recs))
	for _, r := range recs {
		out[r.Stack0] = r
	}
	return out
}

// allocShares attributes the allocations sampled between two heap
// snapshots, sampled at rate bytes, to modules and returns each module's
// estimated object count. Each record is scaled by the inverse of its
// sampling probability, as pprof does.
func allocShares(before, after map[[32]uintptr]runtime.MemProfileRecord, rate int) map[string]float64 {
	shares := map[string]float64{}
	for stk, a := range after {
		b := before[stk]
		objs := a.AllocObjects - b.AllocObjects
		if objs <= 0 {
			continue
		}
		size := float64(a.AllocBytes-b.AllocBytes) / float64(objs)
		scale := 1 / (1 - math.Exp(-size/float64(rate)))
		var funcs []string
		frames := runtime.CallersFrames(a.Stack())
		for {
			f, more := frames.Next()
			funcs = append(funcs, f.Function)
			if !more {
				break
			}
		}
		shares[moduleOf(funcs)] += float64(objs) * scale
	}
	return shares
}
