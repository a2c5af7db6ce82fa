package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"

	"repro/cuszhi"
	"repro/cuszhi/stream"
	"repro/internal/datagen"
	"repro/internal/metrics"
)

// workload fixes everything a run does except the seed: the field's
// shape, how it is compressed, and how many times each short phase is
// repeated so that every per-pass sample lasts tens of milliseconds.
type workload struct {
	name        string
	dims        []int // whole field, slowest first
	snapPlanes  int   // planes per snapshot of the appended store
	chunkPlanes int
	relEB       float64 // value-range-relative bound, resolved on the field
	absEB       float64 // absolute bound, used when relEB is 0
	mode        cuszhi.Mode
	policy      string // auto-mode selection policy
	minCodecs   int    // distinct codecs the written store must hold
	readReps    int    // full reads per pass
	scrubReps   int    // scrubs of the appended store per pass
}

var workloads = map[string]*workload{
	// Paper high-ratio mode on turbulence: interp and entropy coding
	// dominate, few bytes reach the file. The field is four independent
	// 32-plane realizations, which keeps the ratio from swinging with the
	// largest modes of a single one.
	"hicr-jhtdb": {
		name: "hicr-jhtdb", dims: []int{128, 128, 128}, snapPlanes: 64, chunkPlanes: 16,
		relEB: 1e-3, mode: cuszhi.ModeCR, minCodecs: 1, readReps: 1, scrubReps: 320,
	},
	// Per-chunk codec selection over bands of unlike data. Some chunks sit
	// near a selection boundary and flip codec with the seed; two cycles of
	// the bands halve what one flip moves the figures.
	"auto-mixed": {
		name: "auto-mixed", dims: []int{256, 128, 128}, snapPlanes: 64, chunkPlanes: 16,
		absEB: 1e-4, mode: cuszhi.ModeAuto, policy: "best-ratio", minCodecs: 3, readReps: 1, scrubReps: 64,
	},
	// A cheap codec over an archive grown snapshot by snapshot: framing,
	// CRC, recovery scans and file I/O dominate. The snapshots hold log10
	// density, as cosmology archives usually do, under an absolute bound of
	// 0.05 dex: the raw density's heavy-tailed maximum would make any
	// range-based figure (the bound, PSNR) follow the seed.
	"szx-archive": {
		name: "szx-archive", dims: []int{512, 128, 128}, snapPlanes: 64, chunkPlanes: 16,
		absEB: 0.05, mode: "szx", minCodecs: 1, readReps: 2, scrubReps: 6,
	},
}

func lookupWorkload(name string) (*workload, error) {
	w, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return w, nil
}

// planeElems is the element count of one plane along dims[0].
func (w *workload) planeElems() int { return w.dims[1] * w.dims[2] }

// options are the stream options every writer of the workload uses.
func (w *workload) options(workers int) []stream.Option {
	opts := []stream.Option{stream.WithWorkers(workers), stream.WithChunkPlanes(w.chunkPlanes)}
	if w.mode == cuszhi.ModeAuto {
		return append(opts, stream.WithAutoMode(), stream.WithAutoPolicy(w.policy))
	}
	return append(opts, stream.WithMode(w.mode))
}

// bound is the absolute error bound the workload compresses data under.
func (w *workload) bound(data []float32) float64 {
	if w.relEB > 0 {
		return metrics.AbsEB(data, w.relEB)
	}
	return w.absEB
}

// synthesize builds the workload's field from the seed. It is harness
// work: its time and memory are kept out of every metric.
func (w *workload) synthesize(seed int64) ([]float32, error) {
	switch w.name {
	case "hicr-jhtdb":
		return w.bands("jhtdb", 4, seed)
	case "auto-mixed":
		// Two cycles of four 32-plane bands, each normalised to [0,1]:
		// smooth hydrodynamics, clumpy cosmology, white noise, turbulence.
		band := []int{32, w.dims[1], w.dims[2]}
		out := make([]float32, 0, w.dims[0]*w.planeElems())
		for i := 0; i < w.dims[0]/band[0]; i++ {
			name := []string{"miranda", "nyx", "noise", "jhtdb"}[i%4]
			var vals []float32
			if name == "noise" {
				rng := rand.New(rand.NewSource(seed*7 + int64(i)))
				vals = make([]float32, band[0]*band[1]*band[2])
				for j := range vals {
					vals[j] = rng.Float32()
				}
			} else {
				f, err := datagen.Generate(name, band, seed*7+int64(i))
				if err != nil {
					return nil, err
				}
				vals = f.Data
			}
			out = append(out, normalize(vals)...)
		}
		return out, nil
	case "szx-archive":
		vals, err := w.bands("nyx", w.dims[0]/w.snapPlanes, seed)
		for i, v := range vals {
			vals[i] = float32(math.Log10(float64(v)))
		}
		return vals, err
	}
	return nil, fmt.Errorf("workload %q has no synthesizer", w.name)
}

// bands stacks n independent realizations of a dataset along the slowest
// dimension.
func (w *workload) bands(name string, n int, seed int64) ([]float32, error) {
	band := []int{w.dims[0] / n, w.dims[1], w.dims[2]}
	out := make([]float32, 0, w.dims[0]*w.planeElems())
	for k := 0; k < n; k++ {
		f, err := datagen.Generate(name, band, seed*101+int64(k))
		if err != nil {
			return nil, err
		}
		out = append(out, f.Data...)
	}
	return out, nil
}

// normalize maps vals onto [0,1] in place.
func normalize(vals []float32) []float32 {
	lo, _, rng := metrics.Range(vals)
	if rng == 0 {
		rng = 1
	}
	for i, v := range vals {
		vals[i] = float32((float64(v) - lo) / rng)
	}
	return vals
}

// saveField writes vals as little-endian float32 bytes.
func saveField(path string, vals []float32) error {
	buf := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	return os.WriteFile(path, buf, 0o644)
}

// loadField reads a field saveField wrote and checks its length.
func loadField(path string, n int) ([]float32, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(buf) != 4*n {
		return nil, fmt.Errorf("%s holds %d bytes, want %d", path, len(buf), 4*n)
	}
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return vals, nil
}
