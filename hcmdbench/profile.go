package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuProfile is the part of a runtime/pprof CPU profile the benchmark
// attributes: CPU seconds by the package of each sample's leaf frame, and
// the shard kernel's split between its parallel window preparation and
// its serial merge.
type cpuProfile struct {
	selfByPkg map[string]float64 // leaf package (last import-path element) → CPU s
	total     float64
	shardPrep float64 // samples under (*ShardKernel).prepWindow or its parallel workers
	shardMerg float64 // samples under ShardKernel.RunUntil/RunBefore, outside prepWindow
}

func newCPUProfile() *cpuProfile { return &cpuProfile{selfByPkg: map[string]float64{}} }

// leafPackage maps a symbol such as
// "repro/internal/volunteer.(*ShardKernel).prepWindow.func1" to "volunteer".
func leafPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	rest := fn[slash+1:]
	if dot := strings.IndexByte(rest, '.'); dot >= 0 {
		rest = rest[:dot]
	}
	return rest
}

// The decoder reads only the fields of profile.proto it needs:
// Profile{sample=2, location=4, function=5, string_table=6},
// Sample{location_id=1, value=2}, Location{id=1, line=4},
// Line{function_id=1}, Function{id=1, name=2}.

type pbField struct {
	num  int
	wire int
	v    uint64 // varint payload
	b    []byte // length-delimited payload
}

func pbVarint(b []byte) (uint64, int, error) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1, nil
		}
	}
	return 0, 0, errors.New("profile: bad varint")
}

// pbFields splits one protobuf message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.v, n, err = pbVarint(b); err != nil {
				return nil, err
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n, err := pbVarint(b)
			if err != nil || uint64(len(b)-n) < l {
				return nil, errors.New("profile: bad length")
			}
			f.b = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("profile: wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// pbUints reads a repeated integer field, packed or not.
func pbUints(f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.v}, nil
	}
	var out []uint64
	for b := f.b; len(b) > 0; {
		v, n, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// add decodes one gzipped CPU profile and accumulates it.
func (p *cpuProfile) add(raw []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	top, err := pbFields(data)
	if err != nil {
		return err
	}
	var strs []string
	funcName := map[uint64]uint64{} // function id → string index
	locFuncs := map[uint64][]uint64{}
	var samples []pbField
	for _, f := range top {
		switch f.num {
		case 2:
			samples = append(samples, f)
		case 4:
			fs, err := pbFields(f.b)
			if err != nil {
				return err
			}
			var id uint64
			var fns []uint64
			for _, lf := range fs {
				switch lf.num {
				case 1:
					id = lf.v
				case 4:
					line, err := pbFields(lf.b)
					if err != nil {
						return err
					}
					for _, x := range line {
						if x.num == 1 {
							fns = append(fns, x.v)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5:
			fs, err := pbFields(f.b)
			if err != nil {
				return err
			}
			var id, name uint64
			for _, x := range fs {
				switch x.num {
				case 1:
					id = x.v
				case 2:
					name = x.v
				}
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(f.b))
		}
	}
	name := func(fn uint64) string {
		if i := funcName[fn]; i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	for _, s := range samples {
		fs, err := pbFields(s.b)
		if err != nil {
			return err
		}
		var locs, vals []uint64
		for _, x := range fs {
			var xs []uint64
			if xs, err = pbUints(x); err != nil {
				return err
			}
			switch x.num {
			case 1:
				locs = append(locs, xs...)
			case 2:
				vals = append(vals, xs...)
			}
		}
		if len(locs) == 0 || len(vals) == 0 {
			continue
		}
		cpu := float64(vals[len(vals)-1]) / 1e9 // cpu/nanoseconds is the last value
		p.total += cpu
		if leaf := locFuncs[locs[0]]; len(leaf) > 0 {
			p.selfByPkg[leafPackage(name(leaf[0]))] += cpu
		}
		prep, merge := false, false
		for _, l := range locs {
			for _, fn := range locFuncs[l] {
				n := name(fn)
				switch {
				case strings.Contains(n, "(*ShardKernel).prepWindow"), strings.Contains(n, "(*ShardKernel).runParallel"):
					// runParallel covers the worker goroutines, whose
					// stacks do not show the prepWindow that spawned them.
					prep = true
				case strings.HasSuffix(n, "(*ShardKernel).RunUntil"), strings.HasSuffix(n, "(*ShardKernel).RunBefore"):
					merge = true
				}
			}
		}
		switch {
		case prep:
			p.shardPrep += cpu
		case merge:
			p.shardMerg += cpu
		}
	}
	return nil
}
