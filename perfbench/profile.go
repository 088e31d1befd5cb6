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

// A CPU profile, as runtime/pprof writes it, is a gzipped protocol buffer
// (github.com/google/pprof/proto/profile.proto). The benchmark needs only
// each sample's stack of function names and its CPU time, so it decodes
// just those fields with a minimal wire-format reader rather than pulling
// in a profile library.

// profSample is one decoded sample: function names leaf first, and weight.
type profSample struct {
	funcs []string
	ns    int64
}

func decodeProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendUints(s.locs, v, b)
				case 2:
					for _, u := range appendUints(nil, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{}
		if len(s.values) > 0 {
			ps.ns = s.values[len(s.values)-1] // cpu nanoseconds
		}
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				if i := funcNames[f]; i >= 0 && int(i) < len(strs) {
					ps.funcs = append(ps.funcs, strs[i])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// fields walks the top-level fields of one protobuf message, calling fn
// with each field's number and either its varint value or its bytes.
func fields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
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
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated varint field, packed (b) or not (v).
func appendUints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

// split is the pipeline's CPU time folded by stage.
type split struct {
	samples int
	total   int64
	by      map[string]int64
}

func (s split) frac(stage string) float64 { return ratio(float64(s.by[stage]), float64(s.total)) }

// stageSplit folds a CPU profile's samples taken inside Sim.Run into the
// pipeline stages (see stageOf): each sample counts for the outermost
// stage method on its stack, or "other" when none is. Samples whose leaf is
// runtime.duffcopy also count toward duffcopy, whatever their stage.
func stageSplit(gz []byte) (split, error) {
	samples, err := decodeProfile(gz)
	if err != nil {
		return split{}, err
	}
	sp := split{by: map[string]int64{}}
	for _, s := range samples {
		st, inRun := foldStage(s.funcs)
		if !inRun {
			continue
		}
		sp.samples++
		sp.total += s.ns
		sp.by[st] += s.ns
		if len(s.funcs) > 0 && s.funcs[0] == "runtime.duffcopy" {
			sp.by[duffcopy] += s.ns
		}
	}
	if sp.total == 0 {
		return sp, errors.New("cpu profile: no samples inside pipeline.(*Sim).Run")
	}
	return sp, nil
}

// foldStage classifies one stack (leaf first): whether it runs inside
// Sim.Run, and the outermost stage method on it.
func foldStage(funcs []string) (stage string, inRun bool) {
	stage = "other"
	for i := len(funcs) - 1; i >= 0; i-- {
		m, ok := simMethod(funcs[i])
		if !ok {
			continue
		}
		if m == "Run" {
			inRun = true
			continue
		}
		if inRun && stage == "other" {
			if st := stageOf[m]; st != "" && st != helper && st != outer {
				stage = st
			}
		}
	}
	return stage, inRun
}

// simMethod extracts the method name from a pipeline.(*Sim) function name,
// dropping closure suffixes ("Run.func1" -> "Run").
func simMethod(fn string) (string, bool) {
	const prefix = "retstack/internal/pipeline.(*Sim)."
	m, ok := strings.CutPrefix(fn, prefix)
	if !ok {
		return "", false
	}
	if i := strings.IndexByte(m, '.'); i >= 0 {
		m = m[:i]
	}
	return m, true
}
