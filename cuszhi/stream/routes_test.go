package stream

import (
	"bytes"
	"math"
	"testing"

	"repro/cuszhi"
	"repro/internal/core"
	"repro/internal/gpusim"
)

// route names one way to pick each shard's codec, with the options that
// select it on every compress route.
type route struct {
	name   string
	mode   cuszhi.Mode
	policy string // auto mode only
}

func allRoutes() []route {
	var rs []route
	for _, m := range cuszhi.Modes() {
		rs = append(rs, route{name: string(m) + "/v2", mode: m})
	}
	for _, m := range cuszhi.BackendModes() {
		rs = append(rs, route{name: string(m) + "/v5", mode: m})
	}
	for _, p := range []string{"best-ratio", "throughput", "ratio-floor:2"} {
		rs = append(rs, route{name: "auto/" + p, mode: cuszhi.ModeAuto, policy: p})
	}
	return rs
}

// coreCompress runs the in-memory core route for r.
func coreCompress(t *testing.T, r route, dev *gpusim.Device, data []float32, dims []int, eb float64, cp int) []byte {
	t.Helper()
	var enc *core.ShardEncoder
	var err error
	switch {
	case r.mode == cuszhi.ModeAuto:
		pol, perr := core.PolicyByName(r.policy)
		if perr != nil {
			t.Fatal(perr)
		}
		enc, err = core.NewShardEncoder(5, false, pol)
	default:
		if opts, oerr := core.ModeOptions(string(r.mode)); oerr == nil {
			enc, err = core.NewShardEncoder(2, false, opts)
		} else {
			cd, _ := core.CodecByName(string(r.mode))
			enc, err = core.NewShardEncoder(5, false, cd)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	blob, err := core.CompressChunked(dev, data, dims, eb, enc, cp)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestRoutesAreByteIdentical pins the rule that every route to the same
// data returns identical bytes: for every assembly written as v2, every
// backend as v5 and auto mode under each policy, the in-memory core
// compressor, the streaming Writer over a buffer and the cuszhi facade
// emit the same container, and ReadPlanes decodes each to the same field.
func TestRoutesAreByteIdentical(t *testing.T) {
	dims := []int{40, 12, 12}
	data := mixedField(dims)
	const cp, workers = 16, 2
	eb := cuszhi.AbsEB(data, 1e-3)
	dev := gpusim.New(workers)
	for _, r := range allRoutes() {
		t.Run(r.name, func(t *testing.T) {
			fromCore := coreCompress(t, r, dev, data, dims, eb, cp)

			opts := []Option{WithMode(r.mode), WithWorkers(workers), WithChunkPlanes(cp)}
			fopts := []cuszhi.Option{cuszhi.WithWorkers(workers), cuszhi.WithChunkPlanes(cp)}
			if r.policy != "" {
				opts = append(opts, WithAutoPolicy(r.policy))
				fopts = append(fopts, cuszhi.WithAutoPolicy(r.policy))
			} else if _, err := core.ModeOptions(string(r.mode)); err == nil {
				opts = append(opts, WithIndex(false)) // assemblies as plain v2
			}
			var buf bytes.Buffer
			w, err := NewWriter(&buf, dims, eb, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.WriteValues(data); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			fromWriter := buf.Bytes()

			c, err := cuszhi.New(r.mode, fopts...)
			if err != nil {
				t.Fatal(err)
			}
			fromFacade, err := c.CompressAbs(data, dims, eb)
			if err != nil {
				t.Fatal(err)
			}

			if !bytes.Equal(fromCore, fromWriter) {
				t.Fatalf("core (%d B) and Writer (%d B) containers differ", len(fromCore), len(fromWriter))
			}
			if !bytes.Equal(fromCore, fromFacade) {
				t.Fatalf("core (%d B) and facade (%d B) containers differ", len(fromCore), len(fromFacade))
			}

			var want []float32
			for i, blob := range [][]byte{fromCore, fromWriter, fromFacade} {
				ra, err := OpenReaderAt(bytes.NewReader(blob), int64(len(blob)))
				if err != nil {
					t.Fatal(err)
				}
				got, err := ra.ReadPlanes(nil, 0, dims[0])
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					want = got
					continue
				}
				for j := range want {
					if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
						t.Fatalf("route %d: ReadPlanes value %d = %v, want %v", i, j, got[j], want[j])
					}
				}
			}
		})
	}
}

// TestCompressAbsForwardsAutoPolicy: the one-shot conveniences honor
// WithAutoPolicy, returning the container the Writer returns under the
// same policy, and reject it without auto mode as NewWriter does.
func TestCompressAbsForwardsAutoPolicy(t *testing.T) {
	dims := []int{40, 12, 12}
	data := mixedField(dims)
	eb := cuszhi.AbsEB(data, 1e-3)
	opts := []Option{WithAutoMode(), WithWorkers(2), WithChunkPlanes(16)}
	floor := append(opts[:len(opts):len(opts)], WithAutoPolicy("ratio-floor:2"))

	var buf bytes.Buffer
	w, err := NewWriter(&buf, dims, eb, floor...)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteValues(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := CompressAbs(data, dims, eb, floor...)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf.Bytes()) {
		t.Fatalf("CompressAbs under ratio-floor:2 wrote %d B, the Writer %d B", len(got), buf.Len())
	}
	best, err := CompressAbs(data, dims, eb, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, best) {
		t.Fatal("ratio-floor:2 and best-ratio containers are identical; the field no longer tells the policies apart")
	}

	if _, err := CompressAbs(data, dims, eb, WithAutoPolicy("throughput")); err == nil {
		t.Fatal("CompressAbs accepted WithAutoPolicy without auto mode")
	}
	if _, err := Compress(data, dims, 1e-3, WithAutoPolicy("throughput")); err == nil {
		t.Fatal("Compress accepted WithAutoPolicy without auto mode")
	}
}

// TestNewWriterRejectsDimsNoReaderAccepts: dims past the readers' limits
// fail in NewWriter before any byte is written or any shard buffer is
// sized from them.
func TestNewWriterRejectsDimsNoReaderAccepts(t *testing.T) {
	for _, dims := range [][]int{
		{1, 3 << 31},                   // one dim above 2^31
		{1, 1 << 31, 1 << 31, 1 << 31}, // 2^93 values: the plane size wraps to 0
	} {
		var buf bytes.Buffer
		if _, err := NewWriter(&buf, dims, 0.1); err == nil {
			t.Fatalf("dims %v accepted", dims)
		}
		if buf.Len() != 0 {
			t.Fatalf("dims %v: %d header bytes written", dims, buf.Len())
		}
	}
}
