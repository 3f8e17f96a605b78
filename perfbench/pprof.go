package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"strings"
)

// Host self time by layer: each CPU-profile sample is attributed to its
// innermost frame inside module repro and bucketed by that frame's
// package. Samples with no module frame go to runtime.gc (GC workers)
// or runtime.other. The profile is decoded here from its protobuf form
// (profile.proto) so the benchmark needs nothing outside the standard
// library.

// selfShares reads the profiles and returns each bucket's share of all
// sampled CPU time; the shares sum to 1.
func selfShares(paths []string) (map[string]float64, error) {
	counts := map[string]float64{}
	var total float64
	for _, path := range paths {
		samples, err := readProfile(path)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, s := range samples {
			counts[bucketOf(s.frames)] += float64(s.value)
			total += float64(s.value)
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("CPU profiles hold no samples")
	}
	shares := map[string]float64{}
	for _, b := range selfBuckets {
		shares[b] = counts[b] / total
	}
	return shares, nil
}

var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination"}

// bucketOf picks the bucket for one sample's stack, leaf first.
func bucketOf(frames []string) string {
	for _, f := range frames {
		if strings.HasPrefix(f, "main.") {
			return "bench" // the benchmark's own code
		}
		if !strings.HasPrefix(f, "repro/") {
			continue
		}
		pkg := f[strings.LastIndex(f, "/")+1:]
		pkg = pkg[:strings.Index(pkg+".", ".")]
		for _, b := range selfBuckets {
			if b == pkg {
				return b
			}
		}
		return "other"
	}
	for _, f := range frames {
		for _, g := range gcRoots {
			if f == g {
				return "runtime.gc"
			}
		}
	}
	return "runtime.other"
}

// sample is one profile sample: its stack as function names, leaf first
// (inlined callees before their callers), and its last value (CPU ns).
type sample struct {
	frames []string
	value  int64
}

// pb is a minimal protocol-buffer reader.
type pb struct{ b []byte }

func (p *pb) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, io.ErrUnexpectedEOF
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, fmt.Errorf("varint overflow")
}

// field reads the next field: its number, and either its varint value or
// its length-delimited bytes.
func (p *pb) field() (num int, val uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	num = int(key >> 3)
	switch key & 7 {
	case 0:
		val, err = p.varint()
	case 1:
		if len(p.b) < 8 {
			return 0, 0, nil, io.ErrUnexpectedEOF
		}
		p.b = p.b[8:]
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if uint64(len(p.b)) < n {
				return 0, 0, nil, io.ErrUnexpectedEOF
			}
			data, p.b = p.b[:n], p.b[n:]
		}
	case 5:
		if len(p.b) < 4 {
			return 0, 0, nil, io.ErrUnexpectedEOF
		}
		p.b = p.b[4:]
	default:
		err = fmt.Errorf("unsupported wire type %d", key&7)
	}
	return num, val, data, err
}

// varints decodes a repeated integer field, packed or not.
func varints(val uint64, data []byte, dst []uint64) ([]uint64, error) {
	if data == nil {
		return append(dst, val), nil
	}
	p := pb{data}
	for len(p.b) > 0 {
		v, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// forEach calls fn for every field of msg.
func forEach(msg []byte, fn func(num int, val uint64, data []byte) error) error {
	p := pb{msg}
	for len(p.b) > 0 {
		num, val, data, err := p.field()
		if err != nil {
			return err
		}
		if err := fn(num, val, data); err != nil {
			return err
		}
	}
	return nil
}

func readProfile(path string) ([]sample, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	msg, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples []rawSample
		strs    []string
		funcs   = map[uint64]uint64{}   // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = forEach(msg, func(num int, _ uint64, data []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := forEach(data, func(n int, v uint64, d []byte) (err error) {
				switch n {
				case 1:
					s.locs, err = varints(v, d, s.locs)
				case 2:
					s.values, err = varints(v, d, s.values)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := forEach(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line
					return forEach(d, func(ln int, lv uint64, _ []byte) error {
						if ln == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := forEach(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		smp := sample{value: int64(s.values[len(s.values)-1])}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if idx := funcs[f]; idx < uint64(len(strs)) {
					smp.frames = append(smp.frames, strs[idx])
				}
			}
		}
		out = append(out, smp)
	}
	return out, nil
}
