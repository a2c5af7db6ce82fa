package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/arena"
	"repro/internal/bitcomp"
	"repro/internal/bitio"
	"repro/internal/core"
	"repro/internal/fzgpu"
	"repro/internal/gpusim"
	"repro/internal/huffman"
	"repro/internal/interp"
	"repro/internal/lccodec"
	"repro/internal/lorenzo"
	"repro/internal/quant"
	"repro/internal/szp"
	"repro/internal/szx"
)

// Lossless pipelines, parsed once like core's own singletons.
var (
	hiCRTail = lccodec.HiCRTail()
	hiTP     = lccodec.HiTP()
)

// layers accumulates replayed span seconds and counts by metric name.
type layers map[string]float64

// span times fn into the named layer metric.
func (l layers) span(name string, fn func()) {
	t0 := time.Now()
	fn()
	l[name] += time.Since(t0).Seconds()
}

// replayCompress compresses one shard through the public functions of the
// layers the named codec is built from, in the order core runs them, and
// returns the final stage's output. That output must be a byte-exact
// suffix of the payload the codec itself produced for the shard.
func replayCompress(l layers, name string, ctx *arena.Ctx, dev *gpusim.Device, shard []float32, dims []int, eb float64) ([]byte, error) {
	var out []byte
	var err error
	switch name {
	case "szp":
		l.span("szp.compress_s", func() { out, err = szp.CompressCtx(ctx, dev, shard, eb) })
		return out, err
	case "szx":
		l.span("szx.compress_s", func() { out, err = szx.CompressCtx(ctx, dev, shard, eb) })
		return out, err
	case "fzgpu":
		l.span("fzgpu.compress_s", func() { out, err = fzgpu.CompressCtx(ctx, dev, shard, dims, eb) })
		return out, err
	case "cusz-l":
		var res *lorenzo.Result
		l.span("lorenzo.compress_s", func() { res, err = lorenzo.CompressCtx(ctx, dev, shard, lorenzo.NewGrid(dims), eb) })
		if err != nil {
			return nil, err
		}
		l["quant.outliers"] += float64(res.ValOutliers.Len() + len(res.Escapes))
		l.span("huffman.encode_s", func() { out, err = huffman.EncodeCtx(ctx, dev, res.Codes, lorenzo.Alphabet, res.Freq) })
		return out, err
	}
	opts, err := core.ModeOptions(name)
	if err != nil {
		return nil, err
	}
	cfg := opts.Interp
	g := interp.NewGrid(dims)
	if opts.AutoTune {
		l.span("interp.autotune_s", func() { cfg.PerLevel = interp.AutoTune(dev, shard, g, cfg, interp.DefaultSampleFraction) })
	}
	var res *interp.Result
	l.span("interp.compress_s", func() { res, err = interp.CompressCtx(ctx, dev, shard, g, cfg, eb) })
	if err != nil {
		return nil, err
	}
	l["quant.outliers"] += float64(res.Outliers.Len())
	codes := res.Codes
	if opts.Reorder {
		l.span("quant.reorder_s", func() {
			perm := quant.LevelOrderPermCtx(ctx, dims, cfg.AnchorStride)
			reordered := ctx.Bytes(len(codes))
			quant.Apply(dev, perm, codes, reordered)
			codes = reordered
		})
	}
	switch opts.Pipeline {
	case core.PipeHiCR:
		var hf []byte
		l.span("huffman.encode_s", func() { hf, err = huffman.EncodeBytesCtx(ctx, dev, codes, res.Freq) })
		if err != nil {
			return nil, err
		}
		l.span("lccodec.encode_s", func() { out, err = hiCRTail.EncodeCtx(ctx, dev, hf) })
		l["lccodec.out_bytes"] += float64(len(out))
	case core.PipeHiTP:
		l.span("lccodec.encode_s", func() { out, err = hiTP.EncodeCtx(ctx, dev, codes) })
		l["lccodec.out_bytes"] += float64(len(out))
	case core.PipeHuff:
		l.span("huffman.encode_s", func() { out, err = huffman.EncodeBytesCtx(ctx, dev, codes, res.Freq) })
	case core.PipeHuffBitcomp:
		var hf []byte
		l.span("huffman.encode_s", func() { hf, err = huffman.EncodeBytesCtx(ctx, dev, codes, res.Freq) })
		if err != nil {
			return nil, err
		}
		l.span("bitcomp.compress_s", func() { out, err = bitcomp.CompressCtx(ctx, dev, hf) })
	default:
		return nil, fmt.Errorf("codec %s: pipeline %v has no replay", name, opts.Pipeline)
	}
	return out, err
}

// replayDecompress decodes one on-disk shard payload of the named codec
// through its layers' public functions. The result must equal the
// ReadPlanes output for the shard bit for bit.
func replayDecompress(l layers, name string, ctx *arena.Ctx, dev *gpusim.Device, payload []byte) ([]float32, error) {
	var recon []float32
	var err error
	switch name {
	case "szp", "szx":
		off, err := skipDims(payload)
		if err != nil {
			return nil, err
		}
		if name == "szp" {
			l.span("szp.decompress_s", func() { recon, err = szp.DecompressCtx(ctx, dev, payload[off:]) })
		} else {
			l.span("szx.decompress_s", func() { recon, err = szx.DecompressCtx(ctx, dev, payload[off:]) })
		}
		return recon, err
	case "fzgpu":
		l.span("fzgpu.decompress_s", func() { recon, _, err = fzgpu.DecompressCtx(ctx, dev, payload) })
		return recon, err
	}
	p := &parser{b: payload}
	dims, eb := p.v1Header()
	if name == "cusz-l" {
		p.byte1() // pipeline: cusz-l is Huffman only
		var res lorenzo.Result
		res.Escapes = make([]int64, p.uv())
		for i := range res.Escapes {
			res.Escapes[i] = bitio.UnZigZag(p.uv64())
		}
		p.outliers(ctx, &res.ValOutliers)
		body := p.bytes(p.uv())
		if p.err != nil {
			return nil, p.err
		}
		l.span("huffman.decode_s", func() { res.Codes, err = huffman.DecodeCtx(ctx, dev, body) })
		if err != nil {
			return nil, err
		}
		l.span("lorenzo.decompress_s", func() { recon, err = lorenzo.DecompressCtx(ctx, dev, &res, lorenzo.NewGrid(dims), eb) })
		return recon, err
	}
	pipe := core.Pipeline(p.byte1())
	reorder := p.byte1() == 1
	cfg := interp.Config{AnchorStride: p.uv(), BlockZ: p.uv(), BlockY: p.uv(), BlockX: p.uv()}
	for n := p.uv(); n > 0 && p.err == nil; n-- {
		cfg.PerLevel = append(cfg.PerLevel, interp.LevelConfig{Scheme: interp.Scheme(p.byte1()), Spline: interp.Spline(p.byte1())})
	}
	raw := p.bytes(p.uv())
	anchors := make([]float32, len(raw)/4)
	for i := range anchors {
		anchors[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	var outliers quant.Outliers
	p.outliers(ctx, &outliers)
	body := p.bytes(p.uv())
	if p.err != nil {
		return nil, p.err
	}
	var codes, hf []byte
	switch pipe {
	case core.PipeHiCR:
		l.span("lccodec.decode_s", func() { hf, err = hiCRTail.DecodeCtx(ctx, dev, body) })
		if err == nil {
			l.span("huffman.decode_s", func() { codes, err = huffman.DecodeBytesCtx(ctx, dev, hf) })
		}
	case core.PipeHiTP:
		l.span("lccodec.decode_s", func() { codes, err = hiTP.DecodeCtx(ctx, dev, body) })
	case core.PipeHuff:
		l.span("huffman.decode_s", func() { codes, err = huffman.DecodeBytesCtx(ctx, dev, body) })
	case core.PipeHuffBitcomp:
		l.span("bitcomp.decompress_s", func() { hf, err = bitcomp.DecompressCtx(ctx, dev, body) })
		if err == nil {
			l.span("huffman.decode_s", func() { codes, err = huffman.DecodeBytesCtx(ctx, dev, hf) })
		}
	default:
		return nil, fmt.Errorf("codec %s: pipeline %d has no replay", name, pipe)
	}
	if err != nil {
		return nil, err
	}
	if reorder {
		l.span("quant.invert_s", func() {
			perm := quant.LevelOrderPermCtx(ctx, dims, cfg.AnchorStride)
			natural := ctx.Bytes(len(codes))
			quant.Invert(dev, perm, codes, natural)
			codes = natural
		})
	}
	res := &interp.Result{Codes: codes, Anchors: anchors, Outliers: &outliers}
	l.span("interp.decompress_s", func() { recon, err = interp.DecompressCtx(ctx, dev, res, interp.NewGrid(dims), cfg, eb) })
	return recon, err
}

// parser walks a one-shot (v1) shard payload: the layout core writes in
// front of each predictor's lossless stream.
type parser struct {
	b   []byte
	off int
	err error
}

var errShort = errors.New("shard payload ends early")

func (p *parser) uv64() uint64 {
	if p.err != nil {
		return 0
	}
	v, n := bitio.Uvarint(p.b[p.off:])
	if n == 0 {
		p.err = errShort
		return 0
	}
	p.off += n
	return v
}

func (p *parser) uv() int { return int(p.uv64()) }

func (p *parser) bytes(n int) []byte {
	if p.err != nil || n < 0 || p.off+n > len(p.b) {
		p.err = errShort
		return nil
	}
	p.off += n
	return p.b[p.off-n : p.off]
}

func (p *parser) byte1() byte {
	if b := p.bytes(1); b != nil {
		return b[0]
	}
	return 0
}

// v1Header reads magic, version, predictor, dims and the bound.
func (p *parser) v1Header() ([]int, float64) {
	p.bytes(6)
	dims := make([]int, p.uv())
	for i := range dims {
		dims[i] = p.uv()
	}
	raw := p.bytes(8)
	if raw == nil {
		return dims, 0
	}
	return dims, math.Float64frombits(binary.LittleEndian.Uint64(raw))
}

func (p *parser) outliers(ctx *arena.Ctx, o *quant.Outliers) {
	if p.err != nil {
		return
	}
	n, err := quant.ParseOutliersInto(ctx, o, p.b[p.off:])
	if err != nil {
		p.err = err
		return
	}
	p.off += n
}

// skipDims returns the offset past the dims prefix of a szp/szx payload.
func skipDims(b []byte) (int, error) {
	p := &parser{b: b}
	for n := p.uv(); n > 0 && p.err == nil; n-- {
		p.uv()
	}
	return p.off, p.err
}
