package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// layerCPU reads a gzipped pprof CPU profile (as runtime/pprof writes
// it) and returns the sampled CPU nanoseconds per value of the "layer"
// goroutine label; unlabelled samples are keyed "". Only the handful of
// profile.proto fields this needs are decoded, so the benchmark stays
// free of dependencies.
func layerCPU(prof []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(prof))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		values []int64
		labels [][2]int64 // string-table indices of key and value
	}
	var (
		strs    []string
		types   []int64 // string-table index of each sample type
		samples []sample
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type: ValueType{type=1, unit=2}
			return eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					types = append(types, int64(v))
				}
				return nil
			})
		case 2: // sample: Sample{location_id=1, value=2, label=3}
			var s sample
			err := eachField(b, func(n, w int, v uint64, sb []byte) error {
				switch {
				case n == 2 && w == 0:
					s.values = append(s.values, int64(v))
				case n == 2 && w == 2:
					return eachVarint(sb, func(x uint64) { s.values = append(s.values, int64(x)) })
				case n == 3:
					var kv [2]int64
					err := eachField(sb, func(ln, _ int, lv uint64, _ []byte) error {
						if ln == 1 || ln == 2 {
							kv[ln-1] = int64(lv)
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 6: // string_table
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
	cpuIdx := -1
	for i, t := range types {
		if str(t) == "cpu" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return nil, errors.New("cpu profile: no cpu sample type")
	}
	out := make(map[string]int64)
	for _, s := range samples {
		if cpuIdx >= len(s.values) {
			continue
		}
		layer := ""
		for _, kv := range s.labels {
			if str(kv[0]) == "layer" {
				layer = str(kv[1])
			}
		}
		out[layer] += s.values[cpuIdx]
	}
	return out, nil
}

// eachField walks a protobuf message, calling fn with each field's
// number, wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return errors.New("cpu profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = varint(b)
			if n <= 0 {
				return errors.New("cpu profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("cpu profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("cpu profile: bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("cpu profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("cpu profile: wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint walks a packed repeated varint field.
func eachVarint(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := varint(b)
		if n <= 0 {
			return errors.New("cpu profile: bad packed varint")
		}
		fn(v)
		b = b[n:]
	}
	return nil
}

// varint decodes one base-128 varint, returning its length (0 when
// truncated).
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
