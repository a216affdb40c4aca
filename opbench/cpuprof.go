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

// modPath is the program's module path; layers are its packages.
const modPath = "github.com/arrow-te/arrow"

// cpuProfile is a decoded runtime/pprof CPU profile: each sample's stack
// as function names, leaf first, with its sample count.
type cpuProfile struct {
	periodNS int64
	stacks   [][]string
	counts   []int64
}

// parseCPUProfile decodes the gzipped profile.proto pprof.StartCPUProfile
// writes. Only the fields the layer split needs are read.
func parseCPUProfile(data []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		strs     []string
		samples  []rawSample
		funcName = map[uint64]uint64{}   // function id -> string index
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
		p        = &cpuProfile{}
	)
	err = eachField(raw, func(num, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			var vals []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = appendVarints(s.locs, wire, v, b)
				case 2:
					vals, err = appendVarints(vals, wire, v, b)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // function
			var id, name uint64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string table
			strs = append(strs, string(b))
		case 12: // period
			p.periodNS = int64(v)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	for _, s := range samples {
		var stack []string
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				if i := funcName[f]; i < uint64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		p.stacks = append(p.stacks, stack)
		p.counts = append(p.counts, s.count)
	}
	return p, nil
}

var errProto = errors.New("malformed protobuf")

// eachField calls fn for every field of one protobuf message: v holds a
// varint or fixed-width value, b a length-delimited payload.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errProto
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}

// layerOf names the program layer a function belongs to: "arrow" for the
// public package, the package name for internal/<name>, "bench" for this
// benchmark, "" for the runtime and the standard library.
func layerOf(fn string) string {
	pkg := fn
	if i := strings.IndexAny(pkg, "(["); i >= 0 {
		pkg = pkg[:i]
	}
	slash := strings.LastIndex(pkg, "/")
	if dot := strings.Index(pkg[slash+1:], "."); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch {
	case pkg == modPath:
		return "arrow"
	case strings.HasPrefix(pkg, modPath+"/internal/"):
		return strings.TrimPrefix(pkg, modPath+"/internal/")
	case pkg == "main" || strings.HasPrefix(pkg, modPath+"/"):
		return "bench"
	}
	return ""
}

// unrecordedLP are callers whose LP solves carry no metrics recorder, so
// their pivots are missing from lp.pivot_work: the TE baselines, the demand
// normalisation and the reaction's RWA re-solve.
var unrecordedLP = []string{
	modPath + "/internal/te.FFC",
	modPath + "/internal/te.TeaVaR",
	modPath + "/internal/te.ECMP",
	modPath + "/internal/te.MaxConcurrentScale",
	modPath + "/internal/te.MaxThroughput",
	modPath + ".(*TrafficPlan).OnFiberCut",
}

// plannerSolve is the public online solve; its samples outside te are the
// adapter around the TE.
const plannerSolve = modPath + ".(*Planner).Solve"

// cpuSplit is a profile's samples split by layer. Each sample goes to the
// innermost frame that belongs to a layer, so allocation and other runtime
// work count toward the layer that asked for it; samples with no layer
// frame (GC workers, the scheduler) go to "runtime".
type cpuSplit struct {
	periodNS   int64
	total      int64
	byLayer    map[string]int64
	adapter    int64 // inside Planner.Solve, outside te
	lpRecorded int64 // in lp, from solves that report to the recorder
}

func (p *cpuProfile) split() cpuSplit {
	c := cpuSplit{periodNS: p.periodNS, byLayer: map[string]int64{}}
	for k, stack := range p.stacks {
		n := p.counts[k]
		c.total += n
		owner := "runtime"
		for _, fn := range stack {
			if l := layerOf(fn); l != "" {
				owner = l
				break
			}
		}
		c.byLayer[owner] += n
		if owner == "lp" && !anyFrame(stack, unrecordedLP) {
			c.lpRecorded += n
		}
		if anyFrame(stack, []string{plannerSolve}) && !anyLayer(stack, "te") {
			c.adapter += n
		}
	}
	return c
}

// add pools another pass's samples.
func (c *cpuSplit) add(o cpuSplit) {
	if c.byLayer == nil {
		c.byLayer = map[string]int64{}
	}
	c.periodNS = o.periodNS
	c.total += o.total
	c.adapter += o.adapter
	c.lpRecorded += o.lpRecorded
	for k, v := range o.byLayer {
		c.byLayer[k] += v
	}
}

func (c cpuSplit) share(layer string) float64 {
	if c.total == 0 {
		return 0
	}
	return float64(c.byLayer[layer]) / float64(c.total)
}

// anyFrame reports whether the stack runs through one of the functions
// (or a closure inside one).
func anyFrame(stack, fns []string) bool {
	for _, s := range stack {
		for _, f := range fns {
			if s == f || strings.HasPrefix(s, f+".") {
				return true
			}
		}
	}
	return false
}

func anyLayer(stack []string, layer string) bool {
	for _, s := range stack {
		if layerOf(s) == layer {
			return true
		}
	}
	return false
}
