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

// Layer attribution of CPU profiles. runtime/pprof writes a gzipped
// profile.proto message; the standard library has no public decoder, so
// this file reads the few fields attribution needs: samples (location
// ids and values), locations (their inlined line entries), functions
// (name index) and the string table.

// layers lists every layer a profile sample can be charged to, in the
// order the per-layer metrics print them. "bench" is this benchmark's
// own code; "other" takes samples with no frame in the program or the
// runtime.
var layers = []string{
	"sim", "runtime", "workload", "machine", "vm", "coherence", "mesh", "disk",
	"optical", "tlb", "fault", "pool", "exp", "sweep", "guard", "obs", "core",
	"param", "pfs", "stats", "dense", "trace", "report", "bench", "other",
}

// layerOf maps a fully qualified function name to the layer its package
// belongs to, or "" for a frame that is charged to its caller (any
// standard-library package but runtime).
func layerOf(fn string) string {
	pkg := packageOf(fn)
	switch {
	case pkg == "runtime":
		return "runtime"
	case pkg == "main" || pkg == "nwcache/perfbench":
		return "bench"
	case pkg == "nwcache/internal/exp/pool":
		return "pool"
	case strings.HasPrefix(pkg, "nwcache/internal/"):
		name := strings.TrimPrefix(pkg, "nwcache/internal/")
		if i := strings.IndexByte(name, '/'); i >= 0 {
			name = name[:i]
		}
		for _, l := range layers {
			if l == name {
				return l
			}
		}
		return "other"
	case strings.HasPrefix(pkg, "nwcache/"):
		return "other"
	}
	return ""
}

// packageOf extracts the import path from a symbol such as
// "nwcache/internal/sim.(*Engine).Run" or "runtime.mallocgc".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// attribute charges one sample to the innermost frame (frames[0] is the
// leaf) that belongs to the program or to package runtime.
func attribute(frames []string) string {
	for _, fn := range frames {
		if l := layerOf(fn); l != "" {
			return l
		}
	}
	return "other"
}

// profileSelf decodes a gzipped CPU profile and returns CPU seconds per
// layer, plus the profile's total.
func profileSelf(gz []byte) (map[string]float64, float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	// The CPU profile's values are (samples, cpu nanoseconds); charge
	// the nanoseconds, the last value of each sample.
	self := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		sec := float64(s.values[len(s.values)-1]) / 1e9
		var frames []string
		for _, id := range s.locs {
			for _, fid := range p.locLines[id] {
				frames = append(frames, p.strings[p.funcName[fid]])
			}
		}
		self[attribute(frames)] += sec
		total += sec
	}
	return self, total, nil
}

type profSample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	samples  []profSample
	locLines map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locLines: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch {
		case num == 2 && wire == 2: // Sample
			var s profSample
			err := eachField(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					return appendUints(&s.locs, wire, v, data)
				case 2:
					var u []uint64
					if err := appendUints(&u, wire, v, data); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case num == 4 && wire == 2: // Location
			var id uint64
			var fids []uint64
			err := eachField(data, func(num, wire int, v uint64, data []byte) error {
				switch {
				case num == 1 && wire == 0:
					id = v
				case num == 4 && wire == 2: // Line
					return eachField(data, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 && wire == 0 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locLines[id] = fids
			return err
		case num == 5 && wire == 2: // Function
			var id uint64
			var name int64
			err := eachField(data, func(num, wire int, v uint64, _ []byte) error {
				if wire == 0 {
					switch num {
					case 1:
						id = v
					case 2:
						name = int64(v)
					}
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case num == 6 && wire == 2: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	for _, s := range p.samples {
		for _, id := range s.locs {
			for _, fid := range p.locLines[id] {
				if idx := p.funcName[fid]; idx < 0 || idx >= int64(len(p.strings)) {
					return nil, fmt.Errorf("profile: function %d names string %d of %d", fid, idx, len(p.strings))
				}
			}
		}
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the top-level fields of a protobuf message. Varints
// arrive in v, length-delimited payloads in data; fixed-width fields
// are skipped.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendUints reads a repeated integer field in either encoding: one
// varint per field, or a packed run of varints.
func appendUints(dst *[]uint64, wire int, v uint64, data []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
