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

// selfSecondsByPackage decodes a gzipped CPU profile as runtime/pprof
// writes it (profile.proto) and sums each sample's CPU time onto the
// package of its leaf frame: self seconds per package. Only the fields
// that question needs are decoded.
func selfSecondsByPackage(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		sampleTypes []int64               // string index of each value's type
		samples     []sample              // leaf location first
		leafFunc    = map[uint64]uint64{} // location id -> innermost function id
		funcName    = map[uint64]int64{}  // function id -> name string index
		strs        []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					sampleTypes = append(sampleTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					if b == nil {
						s.locs = append(s.locs, v)
						return nil
					}
					return eachVarint(b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					if b == nil {
						s.values = append(s.values, int64(v))
						return nil
					}
					return eachVarint(b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id, fn uint64
			seenLine := false
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch {
				case n == 1:
					id = v
				case n == 4 && !seenLine: // the first line is the innermost inlined frame
					seenLine = true
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			leafFunc[id] = fn
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	cpuIdx := -1
	for i, t := range sampleTypes {
		if t >= 0 && int(t) < len(strs) && strs[t] == "cpu" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return nil, errors.New("cpu profile: no cpu sample type")
	}
	out := make(map[string]float64)
	for _, s := range samples {
		if len(s.locs) == 0 || cpuIdx >= len(s.values) {
			continue
		}
		name := "unknown"
		if idx, ok := funcName[leafFunc[s.locs[0]]]; ok && idx >= 0 && int(idx) < len(strs) {
			name = strs[idx]
		}
		out[packageOf(name)] += float64(s.values[cpuIdx]) / 1e9
	}
	return out, nil
}

// eachField walks the fields of one protobuf message. Varint fields
// arrive as v with b == nil, length-delimited fields as b (non-nil);
// fixed-width fields are skipped.
func eachField(msg []byte, f func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(msg) < w {
				return errors.New("truncated fixed field")
			}
			msg = msg[w:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := f(num, 0, b); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// eachVarint walks a packed repeated varint field.
func eachVarint(b []byte, f func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		f(v)
		b = b[n:]
	}
	return nil
}

// packageOf returns the import path of a symbol such as
// "ecldb/internal/storage.(*HashIndex32).MultiGet".
func packageOf(sym string) string {
	slash := strings.LastIndexByte(sym, '/')
	if dot := strings.IndexByte(sym[slash+1:], '.'); dot >= 0 {
		return sym[:slash+1+dot]
	}
	return sym
}

// moduleOf folds a package onto its repo module ("ecldb/internal/obs/trace"
// is "obs"); packages outside the repo keep their path.
func moduleOf(pkg string) string {
	const root = "ecldb/internal/"
	if !strings.HasPrefix(pkg, root) {
		return pkg
	}
	mod, _, _ := strings.Cut(pkg[len(root):], "/")
	return mod
}
