package main

// The traced run. It measures nothing end to end for the gate; instead it
// breaks a workload's work down by layer, in rounds until --seconds have
// passed, and reports per-layer medians over the rounds. Each round runs:
//
//   - one bare pass (no wrappers), for CPU utilisation, allocation and GC
//     counts, and as the untraced side of the tracing overhead;
//   - one traced pass, the same operations over timing file wrappers,
//     for the io layer;
//   - one accounting round at a parallel width of one: a write and a full
//     read of the field timed end to end, then a replay of every shard
//     of that store through each layer's own public functions.
//
// The replay must reproduce the program's real work: each replayed
// compression must be a byte-exact suffix of the on-disk payload, each
// rebuilt frame must equal the on-disk frame, and each replayed decode
// must equal ReadPlanes bit for bit. The replayed layer times plus
// stream.residual_s must account for the one-worker end-to-end times
// within --account-margin. A failed check fails the run.

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"repro/cuszhi"
	"repro/cuszhi/stream"
	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/gpusim"
)

// layerMetrics lists every per-layer metric the traced run prints, with
// its unit; BENCHMARK.json declares the same list.
var layerMetrics = []struct{ name, unit string }{
	{"interp.autotune_s", "s"}, {"interp.compress_s", "s"}, {"interp.decompress_s", "s"},
	{"quant.reorder_s", "s"}, {"quant.invert_s", "s"}, {"quant.outliers", "count"},
	{"huffman.encode_s", "s"}, {"huffman.decode_s", "s"},
	{"lccodec.encode_s", "s"}, {"lccodec.decode_s", "s"}, {"lccodec.out_bytes", "bytes"},
	{"lorenzo.compress_s", "s"}, {"lorenzo.decompress_s", "s"},
	{"bitcomp.compress_s", "s"}, {"bitcomp.decompress_s", "s"},
	{"szp.compress_s", "s"}, {"szp.decompress_s", "s"},
	{"szx.compress_s", "s"}, {"szx.decompress_s", "s"},
	{"fzgpu.compress_s", "s"}, {"fzgpu.decompress_s", "s"},
	{"core.select_s", "s"}, {"core.select.est_err", "ratio"}, {"core.select.regret", "ratio"},
	{"core.frame_s", "s"}, {"core.parse_s", "s"}, {"core.verify_s", "s"},
	{"core.scan_recovery_s", "s"}, {"core.crc_s", "s"},
	{"core.chunks.hi-cr", "count"}, {"core.chunks.hi-tp", "count"}, {"core.chunks.cusz-i", "count"},
	{"core.chunks.cusz-ib", "count"}, {"core.chunks.cusz-l", "count"}, {"core.chunks.fzgpu", "count"},
	{"core.chunks.szp", "count"}, {"core.chunks.szx", "count"},
	{"io.write_bytes", "bytes"}, {"io.write_calls", "count"}, {"io.write_s", "s"},
	{"io.sync_count", "count"}, {"io.sync_s", "s"}, {"io.truncate_count", "count"},
	{"io.read_bytes", "bytes"}, {"io.read_calls", "count"}, {"io.read_s", "s"},
	{"io.window_read_amp", "ratio"}, {"io.append_read_frac", "ratio"}, {"io.scrub_read_frac", "ratio"},
	{"stream.write_1w_s", "s"}, {"stream.read_1w_s", "s"},
	{"stream.residual_s", "s"}, {"stream.read_residual_s", "s"},
	{"sched.cpu_util", "ratio"},
	{"mem.alloc_bytes_per_MB", "bytes/MB"}, {"mem.gc_cycles", "count"},
	{"trace.write_overhead_s", "s"}, {"trace.read_overhead_s", "s"},
}

// writeLayers and readLayers are the spans that make up the one-worker
// write and full read; anything else is stream overhead (the residual).
var (
	writeLayers = []string{"interp.autotune_s", "interp.compress_s", "quant.reorder_s",
		"huffman.encode_s", "lccodec.encode_s", "lorenzo.compress_s", "bitcomp.compress_s",
		"szp.compress_s", "szx.compress_s", "fzgpu.compress_s", "core.select_s", "core.frame_s",
		"io.write_1w_s", "io.sync_1w_s"}
	readLayers = []string{"interp.decompress_s", "quant.invert_s", "huffman.decode_s",
		"lccodec.decode_s", "lorenzo.decompress_s", "bitcomp.decompress_s", "szp.decompress_s",
		"szx.decompress_s", "fzgpu.decompress_s", "core.parse_s", "core.verify_s", "io.read_1w_s"}
)

// autoCandidates mirrors the codecs auto mode scores per shard; the
// regret metric trial-compresses each of them.
var autoCandidates = []string{"hi-cr", "hi-tp", "cusz-l", "fzgpu", "szp", "szx"}

func runTrace(c config, wl *workload, workers int) (*result, error) {
	b, err := load(c, wl, workers)
	if err != nil {
		return nil, err
	}
	for i := 0; i < warmPasses; i++ {
		b.pass(nil)
	}
	var rounds []layers
	var bareWrite, bareRead, tracedWrite, tracedRead []float64
	start := time.Now()
	for len(rounds) < 3 || time.Since(start) < time.Duration(c.seconds)*time.Second {
		l := layers{}
		// Bare pass: scheduler and memory.
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		r := b.pass(nil)
		runtime.ReadMemStats(&m1)
		wall := r.write + r.read
		l["sched.cpu_util"] = r.cpuWriteRead.Seconds() / (wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
		l["mem.alloc_bytes_per_MB"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (4 * float64(len(b.data)) / 1e6)
		l["mem.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
		bareWrite = append(bareWrite, r.write.Seconds())
		bareRead = append(bareRead, r.read.Seconds())

		// Traced pass: the io layer.
		var pio passIO
		r = b.pass(&pio)
		tracedWrite = append(tracedWrite, r.write.Seconds())
		tracedRead = append(tracedRead, r.read.Seconds())
		w := pio.write.writes().plus(pio.append.writes())
		sy := pio.write.sync.total().plus(pio.append.sync.total())
		rd := pio.read.readAt.total()
		l["io.write_bytes"], l["io.write_calls"], l["io.write_s"] = float64(w.bytes), float64(w.calls), w.secs
		l["io.sync_count"], l["io.sync_s"] = float64(sy.calls), sy.secs
		l["io.truncate_count"] = float64(pio.write.truncate.total().calls + pio.append.truncate.total().calls)
		l["io.read_bytes"], l["io.read_calls"], l["io.read_s"] = float64(rd.bytes), float64(rd.calls), rd.secs
		l["io.append_read_frac"] = float64(pio.append.readAt.total().bytes) / float64(pio.appendOpenBytes)
		l["io.scrub_read_frac"] = float64(pio.scrub.readAt.total().bytes) / float64(pio.scrubStoreBytes)

		// One-worker end-to-end times and the layer replay.
		b.g.done("layer replay", b.accountRound(l, len(rounds) == 0))
		l["io.window_read_amp"] = float64(pio.windows.readAt.total().bytes-pio.windowOpenBytes) / float64(b.frameBytes)
		rounds = append(rounds, l)
		if b.g.failed > 0 {
			break
		}
	}

	out := map[string]metric{}
	for _, m := range layerMetrics {
		var xs []float64
		for _, l := range rounds {
			xs = append(xs, l[m.name])
		}
		out[m.name] = metric{median(xs), m.unit}
	}
	var wsum, rsum []float64
	for _, l := range rounds {
		wsum = append(wsum, sum(l, writeLayers))
		rsum = append(rsum, sum(l, readLayers))
	}
	w1, r1 := out["stream.write_1w_s"].Value, out["stream.read_1w_s"].Value
	out["stream.residual_s"] = metric{w1 - median(wsum), "s"}
	out["stream.read_residual_s"] = metric{r1 - median(rsum), "s"}
	out["trace.write_overhead_s"] = metric{median(tracedWrite) - median(bareWrite), "s"}
	out["trace.read_overhead_s"] = metric{median(tracedRead) - median(bareRead), "s"}
	for _, a := range []struct {
		what       string
		e2e, spans float64
	}{{"write", w1, median(wsum)}, {"read", r1, median(rsum)}} {
		var err error
		if math.Abs(a.e2e-a.spans) > c.margin*a.e2e {
			err = fmt.Errorf("replayed layers account for %.4fs of the one-worker %s's %.4fs; margin %.0f%%",
				a.spans, a.what, a.e2e, 100*c.margin)
		}
		b.g.done("layer accounting", err)
	}
	if b.g.failed > 0 {
		fmt.Fprintln(os.Stderr, "storebench: failed:", b.g.firstErr)
	}
	return &result{Correct: b.g.failed == 0, Attempted: b.g.attempted, Failed: b.g.failed, Metrics: out}, nil
}

func sum(l layers, names []string) float64 {
	s := 0.0
	for _, n := range names {
		s += l[n]
	}
	return s
}

// accountRound writes and fully reads the field at a parallel width of
// one, timing both end to end, then replays every shard of the written
// store through the layers into l. The first round also measures the
// auto-mode selection regret.
func (b *bench) accountRound(l layers, first bool) error {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	wl, ps := b.wl, b.wl.planeElems()
	opts := wl.options(1)
	path := b.path("one-worker.cszh")

	var wio, rio ioStats
	f, raw, err := open(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, &wio)
	if err != nil {
		return err
	}
	defer raw.Close()
	t0 := time.Now()
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
	l["stream.write_1w_s"] = time.Since(t0).Seconds()
	wt := wio.writes()
	l["io.write_1w_s"], l["io.sync_1w_s"] = wt.secs, wio.sync.total().secs

	fr := wrap(raw, &rio)
	fi, err := raw.Stat()
	if err != nil {
		return err
	}
	t0 = time.Now()
	r, err := stream.OpenReaderAt(fr, fi.Size(), opts...)
	if err != nil {
		return err
	}
	b.readBuf, err = r.ReadPlanes(b.readBuf, 0, wl.dims[0])
	if err != nil {
		return err
	}
	l["stream.read_1w_s"] = time.Since(t0).Seconds()
	l["io.read_1w_s"] = rio.readAt.total().secs
	if !sameBits(b.readBuf, b.ref) {
		return fmt.Errorf("one-worker read differs from the multi-worker one")
	}

	// Replay, single-threaded, from the store's bytes in memory.
	store, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	dev := gpusim.New(1)
	var rec *core.RecoveryInfo
	l.span("core.scan_recovery_s", func() { rec, err = core.ScanRecovery(bytes.NewReader(store), int64(len(store))) })
	if err != nil {
		return err
	}
	h := rec.Header
	b.frameBytes = rec.FramesEnd - rec.Entries[0].FrameOff
	pol, err := core.PolicyByName(wl.policy)
	if err != nil {
		return err
	}
	var pickBytes, bestBytes int
	for i, e := range rec.Entries {
		end := rec.FramesEnd
		if i+1 < len(rec.Entries) {
			end = rec.Entries[i+1].FrameOff
		}
		frame := store[e.FrameOff:end]
		shard := b.data[e.PlaneOff*ps : (e.PlaneOff+e.Planes)*ps]
		dims := []int{e.Planes, wl.dims[1], wl.dims[2]}
		name := string(wl.mode)
		if e.Codec != 0 {
			cd, ok := core.CodecByID(e.Codec)
			if !ok {
				return fmt.Errorf("chunk %d: unknown codec id %d", i, e.Codec)
			}
			name = cd.Name()
		}
		l["core.chunks."+name]++
		ctx := arena.Get()
		err := func() error {
			defer arena.Put(ctx)
			var err error
			var minV, maxV float32
			l.span("core.frame_s", func() { minV, maxV, _ = core.ShardRange(shard) })
			if wl.mode == cuszhi.ModeAuto {
				var cd core.Codec
				l.span("core.select_s", func() { cd, _, err = core.SelectShardCodecPolicy(ctx, dev, shard, dims, b.eb, pol) })
				if err != nil {
					return err
				}
				if cd.Name() != name {
					return fmt.Errorf("chunk %d: replayed selection picked %s, the store holds %s", i, cd.Name(), name)
				}
			}
			replayed, err := replayCompress(l, name, ctx, dev, shard, dims, b.eb)
			if err != nil {
				return err
			}
			var c *core.ChunkInfo
			var payload []byte
			l.span("core.parse_s", func() { c, payload, err = core.ReadChunkFrameRaw(bytes.NewReader(frame), h) })
			if err != nil {
				return err
			}
			l.span("core.verify_s", func() { err = core.VerifyChunkPayload(c, payload) })
			if err != nil {
				return err
			}
			if !bytes.HasSuffix(payload, replayed) {
				return fmt.Errorf("chunk %d (%s): replayed layers produced %d bytes that are not a suffix of the %d-byte payload", i, name, len(replayed), len(payload))
			}
			var rebuilt []byte
			if h.Version >= 5 {
				cd, _ := core.CodecByName(name)
				l.span("core.frame_s", func() { rebuilt = core.AppendChunkFrameV5(nil, cd, e.PlaneOff, dims, minV, maxV, payload) })
			} else {
				o, err := core.ModeOptions(name)
				if err != nil {
					return err
				}
				l.span("core.frame_s", func() { rebuilt = core.AppendChunkFrameV3(nil, o, e.PlaneOff, dims, minV, maxV, payload) })
			}
			if !bytes.Equal(rebuilt, frame) {
				return fmt.Errorf("chunk %d: rebuilt frame differs from the on-disk frame", i)
			}
			payOff := end - int64(len(payload))
			l.span("core.crc_s", func() { _, err = core.CRC32At(bytes.NewReader(store), payOff, int64(len(payload))) })
			if err != nil {
				return err
			}
			if first && wl.mode == cuszhi.ModeAuto {
				best, err := bestTrial(ctx, shard, dims, b.eb)
				if err != nil {
					return err
				}
				pickBytes += len(payload)
				bestBytes += best
			}
			ctx.Reset()
			got, err := replayDecompress(l, name, ctx, dev, payload)
			if err != nil {
				return fmt.Errorf("chunk %d (%s): replayed decode: %w", i, name, err)
			}
			if !sameBits(got, b.ref[e.PlaneOff*ps:(e.PlaneOff+e.Planes)*ps]) {
				return fmt.Errorf("chunk %d (%s): replayed decode differs from ReadPlanes", i, name)
			}
			return nil
		}()
		if err != nil {
			return err
		}
	}
	if first && bestBytes > 0 {
		b.regret = float64(pickBytes)/float64(bestBytes) - 1
	}
	l["core.select.regret"] = b.regret
	l["core.select.est_err"] = estErr(b.sels)
	return nil
}

// bestTrial trial-compresses the shard with every auto-mode candidate and
// returns the smallest payload size.
func bestTrial(ctx *arena.Ctx, shard []float32, dims []int, eb float64) (int, error) {
	best := math.MaxInt
	for _, name := range autoCandidates {
		cd, ok := core.CodecByName(name)
		if !ok {
			return 0, fmt.Errorf("auto candidate %s is not registered", name)
		}
		ctx.Reset()
		p, err := cd.Compress(ctx, gpusim.Default, shard, dims, eb)
		if err != nil {
			return 0, err
		}
		best = min(best, len(p))
	}
	ctx.Reset()
	return best, nil
}

// estErr is the mean relative error of auto mode's size estimates.
func estErr(sels []stream.AutoSelection) float64 {
	if len(sels) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range sels {
		s += math.Abs(float64(x.EstBytes)/float64(x.Bytes) - 1)
	}
	return s / float64(len(sels))
}
