package main

// A minimal reader for the gzipped protobuf profiles runtime/pprof
// writes, enough to group CPU self time by package. The pprof tool cannot
// be assumed present, and the standard library's decoder is internal.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// pbField is one protobuf field: its number, wire type and payload
// (varint value, or bytes of a length-delimited field).
type pbField struct {
	num  int
	typ  int
	v    uint64
	data []byte
}

// pbFields splits a protobuf message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("cpuprof: bad field key")
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), typ: int(key & 7)}
		switch f.typ {
		case 0:
			f.v, n = binary.Uvarint(b)
			if n <= 0 {
				return nil, errors.New("cpuprof: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errors.New("cpuprof: short fixed64")
			}
			f.v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errors.New("cpuprof: bad length")
			}
			f.data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errors.New("cpuprof: short fixed32")
			}
			f.v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return nil, fmt.Errorf("cpuprof: wire type %d", f.typ)
		}
		out = append(out, f)
	}
	return out, nil
}

// ints returns the integers of a repeated integer field, packed or not.
func (f pbField) ints() ([]uint64, error) {
	if f.typ == 0 {
		return []uint64{f.v}, nil
	}
	var out []uint64
	for b := f.data; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("cpuprof: bad packed varint")
		}
		out, b = append(out, v), b[n:]
	}
	return out, nil
}

// profSample is one stack with its CPU nanoseconds; Stack[0] is the leaf.
type profSample struct {
	Stack []string
	Nanos int64
}

// parseCPUProfile decodes a gzipped CPU profile into function-name stacks
// (inlined frames expanded, leaf first) weighted by CPU time.
func parseCPUProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	fields, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]uint64{}   // function id -> string index
	locFuncs := map[uint64][]uint64{} // location id -> function ids, leaf first
	var samples [][]pbField
	for _, f := range fields {
		switch f.num {
		case 2:
			sub, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			samples = append(samples, sub)
		case 4: // location
			sub, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, s := range sub {
				switch s.num {
				case 1:
					id = s.v
				case 4: // line
					ln, err := pbFields(s.data)
					if err != nil {
						return nil, err
					}
					for _, l := range ln {
						if l.num == 1 {
							fns = append(fns, l.v)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // function
			sub, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, s := range sub {
				switch s.num {
				case 1:
					id = s.v
				case 2:
					name = s.v
				}
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(f.data))
		}
	}
	// The string table may follow the sample types, so the unit is
	// resolved after the pass. CPU profiles carry [samples/count,
	// cpu/nanoseconds].
	valueIdx := cpuValueIndex(fields, strs, 1)
	out := make([]profSample, 0, len(samples))
	for _, sub := range samples {
		var locs, vals []uint64
		for _, s := range sub {
			switch s.num {
			case 1:
				v, err := s.ints()
				if err != nil {
					return nil, err
				}
				locs = append(locs, v...)
			case 2:
				v, err := s.ints()
				if err != nil {
					return nil, err
				}
				vals = append(vals, v...)
			}
		}
		if valueIdx < 0 || valueIdx >= len(vals) {
			continue
		}
		ps := profSample{Nanos: int64(vals[valueIdx])}
		for _, l := range locs {
			for _, fn := range locFuncs[l] {
				if si := funcName[fn]; int(si) < len(strs) {
					ps.Stack = append(ps.Stack, strs[si])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// cpuValueIndex returns the index of the sample value whose unit is
// nanoseconds, or fallback when no sample type names it.
func cpuValueIndex(fields []pbField, strs []string, fallback int) int {
	idx := 0
	for _, f := range fields {
		if f.num != 1 {
			continue
		}
		sub, err := pbFields(f.data)
		if err != nil {
			return fallback
		}
		for _, s := range sub {
			if s.num == 2 && int(s.v) < len(strs) && strs[s.v] == "nanoseconds" {
				return idx
			}
		}
		idx++
	}
	return fallback
}

// gcRoots are the runtime entry points of garbage-collection work; a
// sample with one of them on its stack is GC time, whoever it ran on.
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.markroot", "runtime.gcDrain", "runtime.sweepone",
}

// transparent lists the runtime and the general-purpose standard library
// packages whose time is charged to their caller: a sort in the merge, a
// strconv in the metrics writer or a memmove in the codec belong to the
// layer that called them.
var transparent = []string{
	"runtime", "internal/", "sort", "slices", "maps", "math", "strconv",
	"bytes", "strings", "bufio", "sync", "unicode", "encoding/", "hash",
	"container/", "fmt", "io", "compress/", "time", "reflect", "errors",
	"cmp", "context",
}

// isTransparent reports whether pkg's time goes to its caller.
func isTransparent(pkg string) bool {
	for _, t := range transparent {
		if pkg == t || strings.HasPrefix(pkg, t+"/") || (strings.HasSuffix(t, "/") && strings.HasPrefix(pkg, t)) {
			return true
		}
	}
	return false
}

// funcPackage returns the import path of a function symbol; symbols
// without one (assembly such as aeshashbody) belong to the runtime.
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return "runtime"
	}
	return fn[:slash+1+dot]
}

// bucketOf attributes one stack's self time to a package bucket:
// "runtime_gc" for garbage collection anywhere on the stack, "syscall" for
// system calls; otherwise the first frame, from the leaf up, outside the
// transparent packages, so an allocation or a memmove is charged to the
// package that caused it. The repository's own
// packages are named by their last path element, others with "/" as "_"
// (net/http is "net_http"); the benchmark's own code is "bench".
func bucketOf(stack []string) string {
	for _, fn := range stack {
		for _, root := range gcRoots {
			if fn == root {
				return "runtime_gc"
			}
		}
	}
	for _, fn := range stack {
		pkg := funcPackage(fn)
		switch {
		case pkg == "syscall" || pkg == "internal/runtime/syscall" || pkg == "runtime/internal/syscall":
			return "syscall"
		case isTransparent(pkg):
			continue
		case pkg == "main" || pkg == "loadimb/pipebench":
			return "bench"
		case strings.HasPrefix(pkg, "loadimb/internal/"):
			return strings.ReplaceAll(strings.TrimPrefix(pkg, "loadimb/internal/"), "/", "_")
		default:
			return strings.ReplaceAll(pkg, "/", "_")
		}
	}
	return "runtime"
}

// cpuShares returns each bucket's share of the profile's CPU time.
func cpuShares(samples []profSample) map[string]float64 {
	var total int64
	by := map[string]int64{}
	for _, s := range samples {
		by[bucketOf(s.Stack)] += s.Nanos
		total += s.Nanos
	}
	out := map[string]float64{}
	if total == 0 {
		return out
	}
	for b, n := range by {
		out[b] = float64(n) / float64(total)
	}
	return out
}
