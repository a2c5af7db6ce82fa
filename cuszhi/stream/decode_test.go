package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/cuszhi"
	"repro/internal/bitio"
	"repro/internal/core"
	"repro/internal/gpusim"
)

// TestV1HeaderVerdictsAgree: Decompress, Inspect and OpenReaderAt read a
// one-shot (v1) header through one parser, so a bound no decoder accepts
// (zero, negative, NaN, infinite) or dims past the 2^33-value cap are
// refused by all of them — none reports a bogus EB or opens the blob.
func TestV1HeaderVerdictsAgree(t *testing.T) {
	dims := []int{6, 8, 8}
	data, _ := genField(t, "nyx", dims)
	c, err := cuszhi.New(cuszhi.ModeTP)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := c.CompressAbs(data, dims, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := core.SniffVersion(blob); v != 1 {
		t.Fatalf("fixture is v%d, want v1", v)
	}
	ebOff := 7 + len(dims) // magic, version, predictor, ndims, one byte per dim
	refused := func(name string, b []byte) {
		t.Helper()
		if _, _, err := cuszhi.Decompress(b); !errors.Is(err, core.ErrCorrupt) {
			t.Errorf("%s: Decompress err = %v, want ErrCorrupt", name, err)
		}
		if info, err := core.Inspect(b); !errors.Is(err, core.ErrCorrupt) {
			t.Errorf("%s: Inspect err = %v (info %+v), want ErrCorrupt", name, err, info)
		}
		if _, err := OpenReaderAt(bytes.NewReader(b), int64(len(b))); !errors.Is(err, core.ErrCorrupt) {
			t.Errorf("%s: OpenReaderAt err = %v, want ErrCorrupt", name, err)
		}
	}
	for _, eb := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		bad := append([]byte(nil), blob...)
		binary.LittleEndian.PutUint64(bad[ebOff:], math.Float64bits(eb))
		refused(fmt.Sprintf("eb %v", eb), bad)
	}
	// 2^31 × 8 × 8 values: every dim is in range, the product is not.
	huge := append([]byte(nil), blob[:7]...)
	huge = bitio.AppendUvarint(huge, 1<<31)
	huge = append(huge, 8, 8)
	huge = append(huge, blob[ebOff:]...)
	refused("dims past 2^33 values", huge)
}

// TestInspectRejectsFooterInsideHeader: a v4 footer whose (re-CRC'd)
// entries put chunk 0 inside the global header is refused by Inspect just
// as by every reader — they share one footer loader.
func TestInspectRejectsFooterInsideHeader(t *testing.T) {
	dims := []int{12, 6, 6}
	data, _ := genField(t, "jhtdb", dims)
	blob := writeV4(t, data, dims, 1e-2, 4, WithMode(cuszhi.ModeTP))
	x, err := core.OpenIndex(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	lie := append([]core.IndexEntry(nil), x.Entries...)
	lie[0].FrameOff = 0
	bad := core.AppendChunkIndexFooter(append([]byte(nil), blob[:x.FramesEnd]...), 4, x.FramesEnd, lie)
	if info, err := core.Inspect(bad); !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("Inspect err = %v (info %+v), want ErrCorrupt", err, info)
	}
	if _, err := OpenReaderAt(bytes.NewReader(bad), int64(len(bad))); !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("OpenReaderAt err = %v, want ErrCorrupt", err)
	}
	if _, _, err := cuszhi.Decompress(bad); !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("Decompress err = %v, want ErrCorrupt", err)
	}
	rep, err := Scrub(bytes.NewReader(bad), int64(len(bad)))
	if err != nil || rep.FooterErr == nil {
		t.Fatalf("Scrub: footer not flagged: %+v (err %v)", rep, err)
	}
}

// TestUnknownVersionIsCorruptOnEveryRoute: a version byte no release
// wrote is corruption to every read route, not just to Decompress.
func TestUnknownVersionIsCorruptOnEveryRoute(t *testing.T) {
	dims := []int{12, 6, 6}
	data, _ := genField(t, "jhtdb", dims)
	bad := writeV4(t, data, dims, 1e-2, 4, WithMode(cuszhi.ModeTP))
	bad[4] = 6
	_, _, derr := cuszhi.Decompress(bad)
	_, oerr := OpenReaderAt(bytes.NewReader(bad), int64(len(bad)))
	_, rerr := NewReader(bytes.NewReader(bad))
	_, serr := Scrub(bytes.NewReader(bad), int64(len(bad)))
	for route, err := range map[string]error{"Decompress": derr, "OpenReaderAt": oerr, "NewReader": rerr, "Scrub": serr} {
		if !errors.Is(err, core.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", route, err)
		}
	}
}

// FuzzDecodeRoutes pins that every read route agrees on the same bytes:
// core.Decompress and OpenReaderAt+ReadPlanes accept or refuse together,
// and whenever core accepts, both return bit-identical fields, so does the
// sequential Reader, Inspect describes the container and Scrub finds it
// clean. Seeds are v5 (auto), v4, v3 and v2 stores plus copies of each
// with a byte flipped every few bytes. Run with
// `go test -fuzz=FuzzDecodeRoutes ./cuszhi/stream` to explore further.
func FuzzDecodeRoutes(f *testing.F) {
	dims := []int{12, 6, 6}
	data := mixedField(dims)
	for _, opts := range [][]Option{
		{WithAutoMode()},
		{WithMode(cuszhi.ModeTP)},
		{WithMode(cuszhi.ModeCuszL), WithIndex(false), WithRelativeEB()},
		{WithMode(cuszhi.ModeTP), WithIndex(false)},
	} {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, dims, 1e-2, append(opts, WithChunkPlanes(4))...)
		if err != nil {
			f.Fatal(err)
		}
		if err := w.WriteValues(data); err != nil {
			f.Fatal(err)
		}
		if err := w.Close(); err != nil {
			f.Fatal(err)
		}
		store := buf.Bytes()
		f.Add(store)
		for at := 0; at < len(store); at += 5 {
			mut := append([]byte(nil), store...)
			mut[at] ^= 0x81
			f.Add(mut)
		}
	}
	dev := gpusim.New(2)
	f.Fuzz(func(t *testing.T, b []byte) {
		info, ierr := core.Inspect(b)
		if ierr == nil {
			total := 1
			for _, d := range info.Dims {
				total *= d
			}
			if total > 1<<20 {
				return // a hostile header may not drive a huge allocation
			}
		}
		want, _, cerr := core.Decompress(dev, b)
		var got []float32
		ra, rerr := OpenReaderAt(bytes.NewReader(b), int64(len(b)), WithWorkers(2))
		if rerr == nil {
			got, rerr = ra.ReadPlanes(nil, 0, ra.Dims()[0])
		}
		if (cerr == nil) != (rerr == nil) {
			t.Fatalf("verdicts differ: Decompress %v, OpenReaderAt+ReadPlanes %v", cerr, rerr)
		}
		if cerr != nil {
			return
		}
		if ierr != nil {
			t.Fatalf("Inspect refuses a container Decompress accepts: %v", ierr)
		}
		if !bytes.Equal(valueBytes(got), valueBytes(want)) {
			t.Fatal("ReadPlanes differs from Decompress")
		}
		r, err := NewReader(bytes.NewReader(b), WithWorkers(2))
		if err != nil {
			t.Fatalf("NewReader refuses a container Decompress accepts: %v", err)
		}
		seq, err := r.ReadAllValues()
		r.Close()
		if err != nil {
			t.Fatalf("Reader refuses a container Decompress accepts: %v", err)
		}
		if !bytes.Equal(valueBytes(seq), valueBytes(want)) {
			t.Fatal("Reader differs from Decompress")
		}
		if info.Version < 2 {
			return // v1 blobs carry no frame checksums to scrub
		}
		rep, err := Scrub(bytes.NewReader(b), int64(len(b)))
		if err != nil {
			t.Fatalf("Scrub refuses a container Decompress accepts: %v", err)
		}
		if !rep.Clean() {
			t.Fatalf("Scrub of a container Decompress accepts: %s", rep.Summary())
		}
	})
}
