package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/cuszhi/stream"
	"repro/internal/metrics"
)

// gate counts every operation a run attempts and every one that failed,
// a failed correctness check included.
type gate struct {
	attempted, failed int
	firstErr          error
}

// done records one operation; a non-nil err marks it failed.
func (g *gate) done(what string, err error) bool {
	g.attempted++
	if err == nil {
		return true
	}
	g.failed++
	if g.firstErr == nil {
		g.firstErr = fmt.Errorf("%s: %w", what, err)
	}
	return false
}

// bench holds one workload's inputs and the state its passes share.
type bench struct {
	wl      *workload
	data    []float32
	eb      float64
	workers int
	dir     string
	g       gate

	ref        []float32 // the first pass's reconstruction; later passes must match it
	storeBytes int64     // size of the first pass's written store
	readBuf    []float32
	winBuf     []float32
	winOrder   []int                  // chunk-aligned windows, in seeded order
	sels       []stream.AutoSelection // the last write's auto-mode picks
	frameBytes int64                  // chunk frame bytes of the written store
	regret     float64                // auto-mode selection regret, measured once
}

func newBench(wl *workload, data []float32, seed int64, workers int, dir string) *bench {
	nWin := wl.dims[0] / wl.chunkPlanes
	return &bench{
		wl: wl, data: data, eb: wl.bound(data), workers: workers, dir: dir,
		winOrder: rand.New(rand.NewSource(seed)).Perm(nWin),
	}
}

// passIO is the io layer's record of one traced pass, phase by phase.
type passIO struct {
	write, read, append, windows, scrub ioStats
	appendOpenBytes                     int64 // store sizes OpenAppend found, summed
	scrubStoreBytes                     int64 // store bytes the scrubs covered
	windowOpenBytes                     int64 // bytes the window reader's open read
}

// passResult is one pass's end-to-end timings.
type passResult struct {
	write, read, append, scrub time.Duration
	windows                    []time.Duration
	cpuWriteRead               time.Duration // process CPU over the write and read phases
	readBytes, appendBytes     int64         // decoded and appended input bytes
	scrubBytes                 int64
	peakRSS                    float64 // largest resident set seen at a phase's end, MB
}

// noteRSS samples the resident set at the end of a phase. Go returns freed
// memory to the OS lazily, so a phase's end still shows its high water.
func (r *passResult) noteRSS() { r.peakRSS = max(r.peakRSS, rssMB()) }

func (b *bench) path(name string) string { return filepath.Join(b.dir, name) }

// open opens a store file, wrapped for the io layer when st is non-nil.
func open(path string, flag int, st *ioStats) (storeFile, *os.File, error) {
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return wrap(f, st), f, nil
}

// wrap hands out f itself, or f behind a timingFile recording into st.
func wrap(f *os.File, st *ioStats) storeFile {
	if st == nil {
		return f
	}
	return &timingFile{f: f, st: st}
}

func mbps(bytes int64, d time.Duration) float64 { return float64(bytes) / 1e6 / d.Seconds() }

// pass runs one closed-loop round of every measured operation, in a fixed
// interleaved order: write the field to store A, read it back, grow store
// B snapshot by snapshot, read chunk windows from B, then scrub B. Each
// operation is checked and counted on the gate. pio, when non-nil,
// receives the io layer's record.
//
// Every phase starts from a collected heap (outside its timing), so it
// pays for the collections its own allocation triggers rather than for
// the garbage of the phase before, and those collections fall at the same
// points in every pass.
func (b *bench) pass(pio *passIO) passResult {
	var res passResult
	wl, ps := b.wl, b.wl.planeElems()
	opts := wl.options(b.workers)
	var sWrite, sRead, sAppend, sWindows, sScrub *ioStats
	if pio != nil {
		sWrite, sRead, sAppend, sWindows, sScrub = &pio.write, &pio.read, &pio.append, &pio.windows, &pio.scrub
	}

	// Write: NewWriter → WriteValues → Close, ending with the file fsynced.
	pathA := b.path("a.cszh")
	var size int64
	err := func() error {
		f, raw, err := open(pathA, os.O_RDWR|os.O_CREATE|os.O_TRUNC, sWrite)
		if err != nil {
			return err
		}
		defer raw.Close()
		runtime.GC()
		c0, t0 := cpuTime(), time.Now()
		w, err := stream.NewWriter(f, wl.dims, b.eb, opts...)
		if err != nil {
			return err
		}
		if err := w.WriteValues(b.data); err != nil {
			w.Close()
			return err
		}
		if err := w.Close(); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		res.write = time.Since(t0)
		res.cpuWriteRead += cpuTime() - c0
		res.noteRSS()
		b.sels = w.AutoSelections()
		fi, err := raw.Stat()
		if err != nil {
			return err
		}
		size = fi.Size()
		if b.storeBytes == 0 {
			b.storeBytes = size
		} else if size != b.storeBytes {
			return fmt.Errorf("store is %d bytes, first pass wrote %d", size, b.storeBytes)
		}
		return nil
	}()
	if !b.g.done("write", err) {
		return res
	}

	// Read: OpenReaderAt → ReadPlanes over the whole field.
	err = func() error {
		f, raw, err := open(pathA, os.O_RDONLY, sRead)
		if err != nil {
			return err
		}
		defer raw.Close()
		runtime.GC()
		c0, t0 := cpuTime(), time.Now()
		for i := 0; i < wl.readReps; i++ {
			r, err := stream.OpenReaderAt(f, size, opts...)
			if err != nil {
				return err
			}
			if b.readBuf, err = r.ReadPlanes(b.readBuf, 0, wl.dims[0]); err != nil {
				return err
			}
			if i == 0 {
				if err := b.checkCodecs(r); err != nil {
					return err
				}
			}
		}
		res.read = time.Since(t0)
		res.cpuWriteRead += cpuTime() - c0
		res.noteRSS()
		res.readBytes = int64(wl.readReps) * 4 * int64(len(b.data))
		return b.checkRecon(b.readBuf)
	}()
	if !b.g.done("read", err) {
		return res
	}

	// Append: the first snapshot starts store B through NewWriter; every
	// later snapshot is one OpenAppend → WriteValues → Close session,
	// which rescans the store and reseals it fsync-ordered.
	pathB := b.path("b.cszh")
	snap := wl.snapPlanes * ps
	fB, rawB, err := open(pathB, os.O_RDWR|os.O_CREATE|os.O_TRUNC, nil)
	if !b.g.done("create archive", err) {
		return res
	}
	defer rawB.Close()
	err = func() error {
		w, err := stream.NewWriter(fB, []int{wl.snapPlanes, wl.dims[1], wl.dims[2]}, b.eb, opts...)
		if err != nil {
			return err
		}
		if err := w.WriteValues(b.data[:snap]); err != nil {
			w.Close()
			return err
		}
		if err := w.Close(); err != nil {
			return err
		}
		return fB.Sync()
	}()
	if !b.g.done("start archive", err) {
		return res
	}
	fB = wrap(rawB, sAppend)
	runtime.GC()
	for off := snap; off < len(b.data); off += snap {
		err := func() error {
			if pio != nil {
				fi, err := rawB.Stat()
				if err != nil {
					return err
				}
				pio.appendOpenBytes += fi.Size()
			}
			t0 := time.Now()
			w, err := stream.OpenAppend(fB, opts...)
			if err != nil {
				return err
			}
			if err := w.WriteValues(b.data[off : off+snap]); err != nil {
				w.Close()
				return err
			}
			if err := w.Close(); err != nil {
				return err
			}
			res.append += time.Since(t0)
			res.appendBytes += 4 * int64(snap)
			return nil
		}()
		if !b.g.done("append", err) {
			return res
		}
	}
	res.noteRSS()
	fi, err := rawB.Stat()
	if !b.g.done("stat archive", err) {
		return res
	}
	sizeB := fi.Size()

	// Windows: chunk-aligned one-chunk ReadPlanes on an open ReaderAt.
	fB = wrap(rawB, sWindows)
	r, err := stream.OpenReaderAt(fB, sizeB, opts...)
	if !b.g.done("open archive", err) {
		return res
	}
	if pio != nil {
		pio.windowOpenBytes = pio.windows.readAt.total().bytes
	}
	cp := wl.chunkPlanes
	runtime.GC()
	for _, k := range b.winOrder {
		lo := k * cp
		t0 := time.Now()
		b.winBuf, err = r.ReadPlanes(b.winBuf, lo, lo+cp)
		res.windows = append(res.windows, time.Since(t0))
		if err == nil && b.ref != nil && !sameBits(b.winBuf, b.ref[lo*ps:(lo+cp)*ps]) {
			err = fmt.Errorf("planes %d..%d differ from the full read", lo, lo+cp)
		}
		b.g.done("window", err)
	}

	res.noteRSS()

	// Scrub the sealed archive.
	fB = wrap(rawB, sScrub)
	runtime.GC()
	t0 := time.Now()
	for i := 0; i < wl.scrubReps; i++ {
		rep, err := stream.Scrub(fB, sizeB)
		if err == nil && !rep.Clean() {
			err = errors.New(rep.Summary())
		}
		if !b.g.done("scrub", err) {
			return res
		}
	}
	res.scrub = time.Since(t0)
	res.scrubBytes = int64(wl.scrubReps) * sizeB
	res.noteRSS()
	if pio != nil {
		pio.scrubStoreBytes += res.scrubBytes
	}
	return res
}

// checkRecon holds a full read to the bound on the first pass and to the
// first pass's bytes on every later one.
func (b *bench) checkRecon(recon []float32) error {
	if b.ref == nil {
		if i := metrics.FirstViolation(b.data, recon, b.eb); i >= 0 {
			return fmt.Errorf("value %d decoded to %v, original %v, bound %g", i, recon[i], b.data[i], b.eb)
		}
		b.ref = append([]float32(nil), recon...)
		return nil
	}
	if !sameBits(recon, b.ref) {
		return errors.New("full read differs from the first pass's")
	}
	return nil
}

// checkCodecs requires the store to mix at least the workload's number of
// codecs (auto mode's per-chunk selection must really select).
func (b *bench) checkCodecs(r *stream.ReaderAt) error {
	if b.wl.minCodecs <= 1 {
		return nil
	}
	if h := r.CodecHistogram(); len(h) < b.wl.minCodecs {
		return fmt.Errorf("store mixes codecs %v, want at least %d", h, b.wl.minCodecs)
	}
	return nil
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// quality is the written store's compression ratio and the PSNR of its
// reconstruction (0, 0 before a pass has succeeded).
func (b *bench) quality() (ratio, psnr float64) {
	if b.ref == nil || b.storeBytes == 0 {
		return 0, 0
	}
	return float64(4*len(b.data)) / float64(b.storeBytes), metrics.Compare(b.data, b.ref).PSNR
}
