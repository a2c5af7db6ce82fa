// Chunked (format v2) containers: the field is split into 3-D shards along
// the slowest dimension and each shard is compressed independently into a
// v1 container, framed with its own header and checksum. Shards compress
// and decompress concurrently (internal/pipeline), which parallelizes the
// serial stages of each codec (histogramming, tree construction) across
// shards, bounds working memory for streaming, and is the layout GPU
// compressors use for batch processing.
//
// Layout (all integers are bitio uvarints unless noted):
//
//	magic[4] "cSZh"
//	version  byte = 2
//	flags    byte = 0 (reserved)
//	ndims, dims[ndims]
//	eb       float64 LE bits (absolute bound, shared by every shard)
//	chunkPlanes          planes per shard along dims[0] (last may be short)
//	nchunks
//	nchunks × chunk frame:
//	    offset           plane index of the shard along dims[0]
//	    shardDims[ndims] shard dims (trailing dims equal the global dims)
//	    codecMode        byte: predictor<<4 | pipeline (predictor nibble is
//	                     validated against the payload; pipeline is advisory)
//	    payloadLen
//	    checksum         uint32 LE, CRC-32 (IEEE) of payload
//	    payload          a self-contained v1 container for the shard
//
// Format v3 extends v2 with per-shard value-range headers, so a streaming
// writer can honor value-range-relative error bounds without a pre-pass
// over the whole field: each shard's bound is derived from its own range
// (which is never larger than the global range, so the global relative
// bound still holds). The layout is identical to v2 except:
//
//	version  byte = 3
//	flags    byte: bit 0 set = the eb field is a RELATIVE bound and each
//	         shard payload carries its own absolute bound; other bits 0
//	every chunk frame gains, between codecMode and payloadLen:
//	    min  float32 LE   smallest value in the shard
//	    max  float32 LE   largest value in the shard
//
// v1 and v2 blobs keep decoding forever; v3 is additive (the golden tests
// lock all three layouts).
//
// Format v4 makes the container seekable: the body is v3 framing (every
// chunk frame carries its value range, whether or not the bound is
// relative) followed by a chunk-index footer, so a reader holding an
// io.ReaderAt can locate and decode any shard without scanning its
// predecessors. The footer is discoverable from the end of the file:
//
//	version  byte = 4
//	flags    byte: bit 0 as in v3; other bits 0
//	nchunks × chunk frame (v3 layout)
//	index body:
//	    nchunks
//	    nchunks × { frameOff, planeOff, planes }   (uvarints; frameOff is
//	                the byte offset of the chunk frame from the container
//	                start, planeOff/planes its plane span along dims[0])
//	crc      uint32 LE, CRC-32 (IEEE) of the index body
//	backptr  uint64 LE, byte offset of the index body from the container
//	         start (= where the frames end)
//	magic[4] "cSZi"
//
// The last IndexTailLen bytes (backptr + magic) are fixed-size, so a
// reader seeks to EOF−12, follows the backpointer, and verifies the index
// CRC. Every decoder then reaches the frames through the index and checks
// each frame it decodes against its entry (see index.go).
//
// Format v5 makes chunked containers heterogeneous: each chunk may be
// compressed by a different registered codec (per-chunk adaptive mode
// dispatch), identified by the codec's 1-byte wire ID. The layout is v4
// plus that ID in two places:
//
//	version  byte = 5
//	every chunk frame gains, between codecMode and the value range:
//	    codecID  byte   registered CodecID of the chunk's assembly
//	index body entries become { frameOff, planeOff, planes, codecID }
//
// The chunk-index footer therefore records every chunk's codec without any
// payload access — readers dispatch (and report codec histograms) from the
// index alone. An unknown codec ID fails with ErrCorrupt, never a panic;
// the codecID must also agree with the frame's codecMode byte and the
// footer's entry (none of these bytes are CRC-protected, so they
// cross-check each other). v1–v4 blobs keep decoding forever.
package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/arena"
	"repro/internal/bitio"
	"repro/internal/gpusim"
	"repro/internal/pipeline"
)

const (
	version2 = 2
	version3 = 3
	version4 = 4
	version5 = 5

	// flagRelEB (v3/v4) marks the header eb field as value-range-relative;
	// each shard payload then carries its own absolute bound.
	flagRelEB = 0x01
)

// indexMagic ends a v4 container; together with the 8-byte backpointer it
// forms the fixed-size tail that makes the index footer discoverable from
// the end of a file.
var indexMagic = [4]byte{'c', 'S', 'Z', 'i'}

// IndexTailLen is the fixed size of the v4 container tail: an 8-byte
// little-endian backpointer to the index body plus the index magic.
const IndexTailLen = 12

// maxChunks bounds the frame count a chunked container may declare,
// protecting the sequential frame scan from absurd headers.
const maxChunks = 1 << 20

// CodecMode packs a shard's assembly into the per-chunk header byte.
func CodecMode(opts Options) byte {
	return byte(opts.Predictor)<<4 | byte(opts.Pipeline)&0x0f
}

// ChunkedInfo describes a chunked (v2–v5) container's global header.
type ChunkedInfo struct {
	Version     int // 2, 3, 4 or 5
	Dims        []int
	EB          float64 // error bound: absolute, or relative when RelEB
	RelEB       bool    // v3 only: EB is value-range-relative
	ChunkPlanes int     // planes per shard along Dims[0]
	NumChunks   int
}

// Total returns the element count of the full field.
func (h *ChunkedInfo) Total() int {
	t := 1
	for _, d := range h.Dims {
		t *= d
	}
	return t
}

// planeSize returns the element count of one plane along dims[0].
func planeSize(dims []int) int {
	p := 1
	for _, d := range dims[1:] {
		p *= d
	}
	return p
}

// numChunks returns how many shards of chunkPlanes planes cover dims[0].
func numChunks(dims []int, chunkPlanes int) int {
	return (dims[0] + chunkPlanes - 1) / chunkPlanes
}

// ChunkInfo describes one chunk frame header.
type ChunkInfo struct {
	Offset    int   // plane index along dims[0]
	Dims      []int // shard dims
	CodecMode byte
	CodecID   CodecID // registered codec wire ID (v5 frames; 0 otherwise)
	Min, Max  float32 // shard value range (v3+ frames only)
	Checksum  uint32
}

// ---------------------------------------------------------------------------
// Encoding.

// PadWide asks AppendChunkedHeader for the widest header: its two growing
// uvarints together take the 10 bytes that hold every value the format
// permits, so a store rewritten at that length never relocates again.
const PadWide = -1

// AppendChunkedHeader serializes the global header of a chunked container
// of format version ver (2–5). rel marks the eb field as value-range-
// relative (v3+: each shard payload then embeds its own absolute bound,
// derived from the shard's value range). nchunks is the declared chunk
// count, 0 meaning the ceiling division of dims[0] by chunkPlanes;
// appendable stores may declare more, because an append session can seal
// a short interior chunk. padTo > 0 fixes the header's byte length: the
// dims[0] and nchunks uvarints, the two fields that grow with a store, are
// widened with non-minimal LEB128 (which every uvarint reader accepts)
// until the header is exactly padTo bytes, so the frames behind it never
// move when it is rewritten in place. It fails when the minimal header
// would not fit padTo. The writer enforces every limit the readers do, so
// it never emits a header no reader accepts.
func AppendChunkedHeader(dst []byte, ver int, dims []int, eb float64, rel bool, chunkPlanes, nchunks, padTo int) ([]byte, error) {
	if ver < version2 || ver > version5 {
		return nil, fmt.Errorf("core: version %d is not a chunked format", ver)
	}
	var flags byte
	if rel {
		if ver == version2 {
			return nil, fmt.Errorf("core: v2 containers cannot carry a relative bound")
		}
		flags = flagRelEB
	}
	if eb <= 0 || math.IsInf(eb, 0) || math.IsNaN(eb) {
		return nil, fmt.Errorf("core: invalid error bound %v", eb)
	}
	if len(dims) == 0 || len(dims) > 8 {
		return nil, fmt.Errorf("core: invalid dims %v", dims)
	}
	total := 1
	for _, d := range dims {
		if d <= 0 || d > 1<<31 || total > (1<<33)/d {
			return nil, fmt.Errorf("core: invalid dims %v (each at most 2^31, at most 2^33 values)", dims)
		}
		total *= d
	}
	if chunkPlanes <= 0 || chunkPlanes > 1<<31 {
		return nil, fmt.Errorf("core: chunk planes %d must be in [1, 2^31]", chunkPlanes)
	}
	ceil := numChunks(dims, chunkPlanes)
	if ceil > maxChunks {
		return nil, fmt.Errorf("core: %d chunks exceeds the %d limit; raise chunk planes", ceil, maxChunks)
	}
	if nchunks == 0 {
		nchunks = ceil
	}
	if nchunks < ceil || nchunks > dims[0] || nchunks > maxChunks {
		return nil, fmt.Errorf("core: %d chunks is invalid for %d planes of %d", nchunks, dims[0], chunkPlanes)
	}
	// The two growing fields, dims[0] and nchunks, absorb the padding.
	w0, wn := uvarintLen(uint64(dims[0])), uvarintLen(uint64(nchunks))
	if padTo != 0 {
		minimal := len(magic) + 2 + uvarintLen(uint64(len(dims))) + w0
		for _, d := range dims[1:] {
			minimal += uvarintLen(uint64(d))
		}
		minimal += 8 + uvarintLen(uint64(chunkPlanes)) + wn
		if padTo == PadWide {
			padTo = minimal - w0 - wn + 10
		}
		pad := padTo - minimal
		if pad < 0 || w0+pad > 2*10 {
			return nil, fmt.Errorf("core: header needs %d bytes, cannot pad to %d", minimal, padTo)
		}
		if grow := min(pad, 10-w0); grow > 0 {
			w0 += grow
			pad -= grow
		}
		wn += pad
		if wn > 10 {
			return nil, fmt.Errorf("core: header cannot pad to %d", padTo)
		}
	}
	dst = append(dst, magic[:]...)
	dst = append(dst, byte(ver), flags)
	dst = bitio.AppendUvarint(dst, uint64(len(dims)))
	dst = appendUvarintWide(dst, uint64(dims[0]), w0)
	for _, d := range dims[1:] {
		dst = bitio.AppendUvarint(dst, uint64(d))
	}
	dst = bitio.AppendUint64(dst, math.Float64bits(eb))
	dst = bitio.AppendUvarint(dst, uint64(chunkPlanes))
	return appendUvarintWide(dst, uint64(nchunks), wn), nil
}

// appendUvarintWide serializes v as a LEB128 uvarint of exactly width
// bytes, padding with zero continuation groups. Every uvarint reader
// (binary.ReadUvarint, bitio.Uvarint) accepts the non-minimal form, so a
// widened field can later be rewritten in place with a larger value.
func appendUvarintWide(dst []byte, v uint64, width int) []byte {
	for i := 0; i < width-1; i++ {
		dst = append(dst, byte(v&0x7f)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// uvarintLen returns the minimal LEB128 encoding length of v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// appendChunkFrame serializes one chunk frame of a version-ver container
// (header + payload). mode is the codec-mode byte of v2–v4 frames; v5
// frames add the codec wire ID id and derive the mode byte from it (0 for
// a codec without Options — it is advisory there, and frame validation
// then rests on the codec ID and its footer cross-check alone). v3+ frames
// carry the shard's value range.
func appendChunkFrame(dst []byte, ver int, mode byte, id CodecID, offset int, shardDims []int, minV, maxV float32, payload []byte) []byte {
	dst = bitio.AppendUvarint(dst, uint64(offset))
	for _, d := range shardDims {
		dst = bitio.AppendUvarint(dst, uint64(d))
	}
	if ver >= version5 {
		mode, _ = codecFrameMode(id)
		dst = append(dst, mode, byte(id))
	} else {
		dst = append(dst, mode)
	}
	if ver >= version3 {
		dst = bitio.AppendUint32(dst, math.Float32bits(minV))
		dst = bitio.AppendUint32(dst, math.Float32bits(maxV))
	}
	dst = bitio.AppendUvarint(dst, uint64(len(payload)))
	dst = bitio.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// AppendChunkFrameV3 serializes one v3/v4 chunk frame, which carries the
// shard's value range between the codec-mode byte and the payload length.
func AppendChunkFrameV3(dst []byte, opts Options, offset int, shardDims []int, minV, maxV float32, payload []byte) []byte {
	return appendChunkFrame(dst, version3, CodecMode(opts), codecInvalid, offset, shardDims, minV, maxV, payload)
}

// AppendChunkFrameV5 serializes one v5 chunk frame: the v3 layout with the
// chunk's registered codec wire ID between the codec-mode byte and the
// value range, so readers can dispatch the chunk without inspecting its
// payload.
func AppendChunkFrameV5(dst []byte, cd Codec, offset int, shardDims []int, minV, maxV float32, payload []byte) []byte {
	return appendChunkFrame(dst, version5, 0, cd.ID(), offset, shardDims, minV, maxV, payload)
}

// IndexEntry locates one chunk inside a v4/v5 container: where its frame
// starts, which planes it reconstructs and (v5) which codec wrote it.
type IndexEntry struct {
	FrameOff int64   // byte offset of the chunk frame from the container start
	PlaneOff int     // first plane the chunk covers along Dims[0]
	Planes   int     // planes the chunk covers
	Codec    CodecID // the chunk's codec wire ID (v5 indexes; 0 otherwise)
}

// AppendChunkIndexFooter serializes the chunk-index footer of a version-
// ver container: v4 entries locate each chunk, v5 entries also record its
// codec wire ID, and v2/v3 containers have no footer (dst is returned
// unchanged). footerOff is the byte offset at which the footer itself
// begins (the container length so far, where the last chunk frame ended);
// it becomes the backpointer stored in the fixed-size tail.
func AppendChunkIndexFooter(dst []byte, ver int, footerOff int64, entries []IndexEntry) []byte {
	if ver < version4 {
		return dst
	}
	body := bitio.AppendUvarint(nil, uint64(len(entries)))
	for _, e := range entries {
		body = bitio.AppendUvarint(body, uint64(e.FrameOff))
		body = bitio.AppendUvarint(body, uint64(e.PlaneOff))
		body = bitio.AppendUvarint(body, uint64(e.Planes))
		if ver >= version5 {
			body = bitio.AppendUvarint(body, uint64(e.Codec))
		}
	}
	dst = append(dst, body...)
	dst = bitio.AppendUint32(dst, crc32.ChecksumIEEE(body))
	dst = bitio.AppendUint64(dst, uint64(footerOff))
	return append(dst, indexMagic[:]...)
}

// ShardRange scans one slab of values for its min/max — the v3 per-shard
// range header. NaNs are skipped, as the whole-file range pre-pass this
// replaces did; ok is false when the shard is empty or all-NaN.
func ShardRange(vs []float32) (minV, maxV float32, ok bool) {
	i := 0
	for i < len(vs) && vs[i] != vs[i] { // skip leading NaNs
		i++
	}
	if i == len(vs) {
		return 0, 0, false
	}
	minV, maxV = vs[i], vs[i]
	for _, v := range vs[i+1:] {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	return minV, maxV, true
}

// ShardPick reports one shard's auto-mode selection: which codec the
// estimator picked, what size it predicted, and what the winner actually
// produced — the estimator-vs-actual observability record the streaming
// writer aggregates.
type ShardPick struct {
	Codec       string // winner's mode name
	EstBytes    int    // estimator's predicted payload size
	ActualBytes int    // the winner's real payload size
	EstRatio    float64
	ActualRatio float64
}

// ShardEncoder is the one per-shard encode path behind every chunked
// compress route: the in-memory CompressChunked, the streaming writer and
// append sessions. It is built once per container and is safe for
// concurrent use.
type ShardEncoder struct {
	ver  int
	rel  bool
	opts Options         // fixed assembly (v2–v4 frames)
	cd   Codec           // fixed registered codec (v5 frames)
	pol  SelectionPolicy // per-shard selection (v5 frames)
}

// NewShardEncoder builds the shard encoder of a container of format
// version ver. chooser decides each shard's codec: a fixed assembly
// Options (v2–v4), a fixed registered Codec (v5), or a SelectionPolicy
// that picks per shard (v5 auto mode). rel makes the container bound
// value-range-relative, resolved per shard from the shard's own range
// (v3+).
func NewShardEncoder(ver int, rel bool, chooser any) (*ShardEncoder, error) {
	e := &ShardEncoder{ver: ver, rel: rel}
	v5 := false
	switch c := chooser.(type) {
	case Options:
		e.opts = c
	case Codec:
		e.cd, v5 = c, true
	case SelectionPolicy:
		e.pol, v5 = c, true
	default:
		return nil, fmt.Errorf("core: shard chooser %T is not Options, Codec or SelectionPolicy", chooser)
	}
	switch {
	case v5 && ver != version5:
		return nil, fmt.Errorf("core: per-chunk codec IDs need format v5, not v%d", ver)
	case !v5 && (ver < version2 || ver > version4):
		return nil, fmt.Errorf("core: assembly frames need format v2–v4, not v%d", ver)
	case rel && ver < version3:
		return nil, fmt.Errorf("core: v%d containers cannot carry a relative bound", ver)
	}
	return e, nil
}

// Version reports the container format version the encoder frames for.
func (e *ShardEncoder) Version() int { return e.ver }

// Encode runs one shard through the per-shard steps in order: value range
// (v3+), relative-bound resolution, selection (auto mode), compress and
// frame. shard holds the planes starting at plane offset, shardDims its
// dims, and eb the container's bound. It returns the chunk frame (a fresh
// allocation), the codec ID for the shard's index entry (v5; 0 otherwise)
// and, in auto mode, the selection record (the zero ShardPick otherwise).
// ctx supplies scratch; selection Resets it.
func (e *ShardEncoder) Encode(ctx *arena.Ctx, dev *gpusim.Device, shard []float32, shardDims []int, offset int, eb float64) ([]byte, CodecID, ShardPick, error) {
	var minV, maxV float32
	if e.ver >= version3 {
		minV, maxV, _ = ShardRange(shard) // all-NaN: zero range below
	}
	if e.rel {
		eb = shardBound(eb, minV, maxV)
	}
	cd := e.cd
	var pick ShardPick
	if e.pol != nil {
		win, est, err := SelectShardCodecPolicy(ctx, dev, shard, shardDims, eb, e.pol)
		if err != nil {
			return nil, codecInvalid, pick, err
		}
		cd = win
		pick = ShardPick{Codec: win.Name(), EstBytes: est.Bytes, EstRatio: est.Ratio}
	}
	var payload []byte
	var err error
	id := codecInvalid
	if cd == nil {
		payload, err = CompressCtx(ctx, dev, shard, shardDims, eb, e.opts)
	} else {
		payload, err = cd.Compress(ctx, dev, shard, shardDims, eb)
		id = cd.ID()
	}
	if err != nil {
		return nil, codecInvalid, pick, err
	}
	if e.pol != nil {
		pick.ActualBytes = len(payload)
		pick.ActualRatio = float64(4*len(shard)) / float64(len(payload))
	}
	return appendChunkFrame(nil, e.ver, CodecMode(e.opts), id, offset, shardDims, minV, maxV, payload), id, pick, nil
}

// shardBound resolves a value-range-relative bound to the absolute bound of
// a shard spanning [minV, maxV]. A shard's range never exceeds the field's,
// so the field-relative bound still holds.
func shardBound(relEB float64, minV, maxV float32) float64 {
	if rng := float64(maxV) - float64(minV); rng > 0 {
		return relEB * rng
	}
	// Constant shard: the field's true range is unknown here, so any
	// range-derived fallback could exceed the global bound. Instead pick a
	// bound below half a float32 ulp of the value — mag*1e-8 for normal
	// magnitudes, floored at 1e-46 (< half the smallest denormal spacing) —
	// so the reconstruction is bit-exact and satisfies every possible
	// global bound.
	return max(math.Abs(float64(minV))*1e-8, 1e-46)
}

// CompressChunked encodes data into a chunked container of enc's format
// version, compressing shards of chunkPlanes planes concurrently on dev's
// worker pool, each worker through its own reusable codec context. v4+
// containers end with the chunk-index footer.
func CompressChunked(dev *gpusim.Device, data []float32, dims []int, eb float64, enc *ShardEncoder, chunkPlanes int) ([]byte, error) {
	out, err := AppendChunkedHeader(nil, enc.ver, dims, eb, enc.rel, chunkPlanes, 0, 0)
	if err != nil {
		return nil, err
	}
	ps := planeSize(dims)
	if ps*dims[0] != len(data) {
		return nil, fmt.Errorf("core: dims %v do not match %d values", dims, len(data))
	}
	n := numChunks(dims, chunkPlanes)
	ctxs := workerCtxs(dev.Workers(), n)
	defer releaseCtxs(ctxs)
	type chunk struct {
		frame []byte
		entry IndexEntry
	}
	chunks, err := pipeline.MapWorker(dev.Workers(), n, func(w, i int) (chunk, error) {
		ctx := ctxs[w]
		ctx.Reset()
		offset := i * chunkPlanes
		planes := min(chunkPlanes, dims[0]-offset)
		shardDims := append([]int{planes}, dims[1:]...)
		frame, id, _, err := enc.Encode(ctx, dev, data[offset*ps:(offset+planes)*ps], shardDims, offset, eb)
		if err != nil {
			return chunk{}, fmt.Errorf("core: shard at plane %d: %w", offset, err)
		}
		return chunk{frame, IndexEntry{PlaneOff: offset, Planes: planes, Codec: id}}, nil
	})
	if err != nil {
		return nil, err
	}
	var entries []IndexEntry // for the v4+ footer
	if enc.ver >= version4 {
		entries = make([]IndexEntry, len(chunks))
	}
	for i, c := range chunks {
		if entries != nil {
			entries[i] = c.entry
			entries[i].FrameOff = int64(len(out))
		}
		out = append(out, c.frame...)
	}
	return AppendChunkIndexFooter(out, enc.ver, int64(len(out)), entries), nil
}

// workerCtxs draws one codec context per worker slot from the arena pool.
func workerCtxs(workers, jobs int) []*arena.Ctx {
	if workers <= 0 || workers > jobs {
		workers = jobs
	}
	if workers < 1 {
		workers = 1
	}
	ctxs := make([]*arena.Ctx, workers)
	for i := range ctxs {
		ctxs[i] = arena.Get()
	}
	return ctxs
}

func releaseCtxs(ctxs []*arena.Ctx) {
	for _, c := range ctxs {
		arena.Put(c)
	}
}

// ---------------------------------------------------------------------------
// Decoding.

// oneByteReader adapts an io.Reader to io.ByteReader without buffering
// ahead, so uvarint reads interleave safely with io.ReadFull.
type oneByteReader struct {
	r   io.Reader
	buf [1]byte
}

func (b *oneByteReader) ReadByte() (byte, error) {
	if _, err := io.ReadFull(b.r, b.buf[:]); err != nil {
		return 0, err
	}
	return b.buf[0], nil
}

func readUvarint(r io.Reader) (uint64, error) {
	v, err := binary.ReadUvarint(&oneByteReader{r: r})
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return 0, ErrCorrupt
	}
	return v, err
}

// SniffVersion reports the container format version from a prefix of at
// least 5 bytes, or ok=false when the prefix is not a container at all.
func SniffVersion(prefix []byte) (int, bool) {
	if len(prefix) < 5 || !bytes.Equal(prefix[:4], magic[:]) {
		return 0, false
	}
	return int(prefix[4]), true
}

// ReadChunkedHeader parses a chunked (v2–v5) global header from r
// (including the magic and version bytes).
func ReadChunkedHeader(r io.Reader) (*ChunkedInfo, error) {
	var pre [6]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return nil, ErrCorrupt
	}
	if !bytes.Equal(pre[:4], magic[:]) {
		return nil, ErrCorrupt
	}
	ver, flags := pre[4], pre[5]
	if ver < version2 || ver > version5 {
		return nil, fmt.Errorf("core: not a chunked container (version %d): %w", ver, ErrCorrupt)
	}
	if ver == version2 && flags != 0 {
		return nil, ErrCorrupt // v2 reserves the flags byte as zero
	}
	if ver >= version3 && flags&^byte(flagRelEB) != 0 {
		return nil, ErrCorrupt
	}
	nd, err := readUvarint(r)
	if err != nil || nd == 0 || nd > 8 {
		return nil, ErrCorrupt
	}
	h := &ChunkedInfo{
		Version: int(ver),
		RelEB:   ver >= version3 && flags&flagRelEB != 0,
		Dims:    make([]int, nd),
	}
	total := 1
	for i := range h.Dims {
		v, err := readUvarint(r)
		if err != nil || v == 0 || v > 1<<31 {
			return nil, ErrCorrupt
		}
		h.Dims[i] = int(v)
		total *= int(v)
		if total <= 0 || total > 1<<33 {
			return nil, ErrCorrupt
		}
	}
	var ebb [8]byte
	if _, err := io.ReadFull(r, ebb[:]); err != nil {
		return nil, ErrCorrupt
	}
	h.EB = math.Float64frombits(binary.LittleEndian.Uint64(ebb[:]))
	if !(h.EB > 0) || math.IsInf(h.EB, 0) {
		return nil, ErrCorrupt
	}
	cp, err := readUvarint(r)
	if err != nil || cp == 0 || cp > 1<<31 {
		return nil, ErrCorrupt
	}
	h.ChunkPlanes = int(cp)
	nc, err := readUvarint(r)
	if err != nil || nc == 0 || nc > maxChunks {
		return nil, ErrCorrupt
	}
	h.NumChunks = int(nc)
	// Appendable stores reseal after every session, and a session may end
	// on a short shard, so a container can legally hold MORE chunks than
	// the ceiling division implies (short interior chunks) — but never
	// fewer, and never more than one per plane. Every decode path still
	// requires the chunks to tile [0, Dims[0]) contiguously with no chunk
	// thicker than ChunkPlanes.
	if h.NumChunks < numChunks(h.Dims, h.ChunkPlanes) || h.NumChunks > h.Dims[0] {
		return nil, ErrCorrupt
	}
	return h, nil
}

// validateChunkFrame applies the frame-header rules to a parsed header
// (parseFrameHeader, behind every decode path).
func validateChunkFrame(h *ChunkedInfo, c *ChunkInfo, plen int) error {
	if c.Offset >= h.Dims[0] {
		return ErrCorrupt
	}
	if h.Version >= version3 {
		// The v3 range header must be an ordered, finite pair.
		if math.IsNaN(float64(c.Min)) || math.IsNaN(float64(c.Max)) || c.Min > c.Max {
			return ErrCorrupt
		}
	}
	if h.Version >= version5 {
		// The codec ID must resolve in the registry, and (neither byte is
		// CRC-protected) agree with the frame's packed codec-mode byte.
		cd, ok := CodecByID(c.CodecID)
		if !ok {
			return fmt.Errorf("core: chunk at plane %d: unknown codec id %d: %w", c.Offset, c.CodecID, ErrCorrupt)
		}
		if mode, ok := codecFrameMode(cd.ID()); ok && mode != c.CodecMode {
			return fmt.Errorf("core: chunk at plane %d: codec %s disagrees with codec mode %#x: %w",
				c.Offset, CodecLabel(c.CodecID), c.CodecMode, ErrCorrupt)
		}
	}
	elems := 1
	for i, d := range c.Dims {
		if d <= 0 || d > 1<<31 {
			return ErrCorrupt
		}
		elems *= d
		if elems <= 0 || elems > 1<<33 {
			return ErrCorrupt
		}
		if i > 0 && d != h.Dims[i] {
			return ErrCorrupt
		}
	}
	if c.Dims[0] > h.ChunkPlanes || c.Offset+c.Dims[0] > h.Dims[0] {
		return ErrCorrupt
	}
	// A v1 shard container is never drastically larger than the raw shard;
	// the cap keeps hostile headers from forcing huge allocations.
	if plen > 16*elems+1<<20 {
		return ErrCorrupt
	}
	return nil
}

// readPayload reads exactly n bytes from r, growing the buffer
// incrementally so a hostile header cannot force a multi-GB allocation
// before any real bytes have arrived.
func readPayload(r io.Reader, n uint64) ([]byte, error) {
	const step = 1 << 20
	first := n
	if first > step {
		first = step
	}
	buf := make([]byte, 0, first)
	for remaining := n; remaining > 0; {
		c := remaining
		if c > step {
			c = step
		}
		start := len(buf)
		buf = append(buf, make([]byte, c)...)
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return nil, ErrCorrupt
		}
		remaining -= c
	}
	return buf, nil
}

// VerifyChunkPayload checks a chunk payload against its frame header's
// CRC-32, wrapping ErrCorrupt on mismatch.
func VerifyChunkPayload(c *ChunkInfo, payload []byte) error {
	if crc32.ChecksumIEEE(payload) != c.Checksum {
		return fmt.Errorf("core: chunk at plane %d: checksum mismatch: %w", c.Offset, ErrCorrupt)
	}
	return nil
}

// ReadChunkFrameRaw parses the next chunk frame from r — header validation
// included — but does NOT verify the payload CRC; the caller must run
// VerifyChunkPayload before trusting the bytes. Degraded readers use the
// split so a bit-rotted payload leaves r positioned exactly at the next
// frame boundary: the frame is structurally intact and fully consumed,
// only its bytes are wrong, so the read can skip the chunk and continue.
// The header is read field by field, never past its end, so r may be a
// pipe the producer holds open.
func ReadChunkFrameRaw(r io.Reader, h *ChunkedInfo) (*ChunkInfo, []byte, error) {
	var hdr [MaxFrameHeaderLen]byte
	c, plen, err := parseFrameHeader(&frameCursor{buf: hdr[:0], r: r}, h)
	if err != nil {
		return nil, nil, err
	}
	payload, err := readPayload(r, uint64(plen))
	if err != nil {
		return nil, nil, err
	}
	return c, payload, nil
}

// ScanFrameHeader parses a chunk frame header from the front of buf, which
// need only hold the header bytes — not the payload. It returns the frame
// info (checksum included), the offset within buf at which the payload
// begins, and the payload length, applying the same validation as
// ReadChunkFrameRaw. Frame walkers use it to step through a container by
// offset arithmetic without touching any payload bytes.
func ScanFrameHeader(buf []byte, h *ChunkedInfo) (*ChunkInfo, int, int, error) {
	cur := frameCursor{buf: buf[:min(len(buf), MaxFrameHeaderLen)]}
	c, plen, err := parseFrameHeader(&cur, h)
	if err != nil {
		return nil, 0, 0, err
	}
	return c, cur.off, plen, nil
}

// frameCursor feeds parseFrameHeader. Over a byte slice (r == nil) the
// header must already sit in buf; over a stream, take reads exactly the
// bytes the parser asks for, so the parse never reads past the header.
// Either way a header longer than MaxFrameHeaderLen is refused.
type frameCursor struct {
	buf []byte    // header bytes held so far
	off int       // parse position in buf
	r   io.Reader // source of further bytes; nil when buf holds all there is
}

// take returns the next n header bytes, or ok=false when the input or
// the MaxFrameHeaderLen budget runs out first.
func (c *frameCursor) take(n int) ([]byte, bool) {
	end := c.off + n
	if end > len(c.buf) {
		if c.r == nil || end > cap(c.buf) {
			return nil, false
		}
		have := len(c.buf)
		c.buf = c.buf[:end]
		if _, err := io.ReadFull(c.r, c.buf[have:]); err != nil {
			return nil, false
		}
	}
	b := c.buf[c.off:end]
	c.off = end
	return b, true
}

// field reads one uvarint header field, byte by byte. Every frame field,
// the payload length included, is at most 2^31: that ceiling is part of
// the format.
func (c *frameCursor) field() (int, bool) {
	var v uint64
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, ok := c.take(1)
		if !ok {
			return 0, false
		}
		if i >= 5 && b[0]&0x7f != 0 {
			return 0, false // bits past 2^35: over the cap, and maybe past 64
		}
		v |= uint64(b[0]&0x7f) << (7 * i)
		if b[0] < 0x80 {
			if v > 1<<31 {
				return 0, false
			}
			return int(v), true
		}
	}
	return 0, false
}

// parseFrameHeader is the one chunk-frame header parser: it reads the
// header fields of a version-h.Version frame from cur, validates them
// against the global header h, and returns the frame info (checksum
// included) and the payload length.
func parseFrameHeader(cur *frameCursor, h *ChunkedInfo) (*ChunkInfo, int, error) {
	off, ok := cur.field()
	if !ok {
		return nil, 0, ErrCorrupt
	}
	c := &ChunkInfo{Offset: off, Dims: make([]int, len(h.Dims))}
	for i := range c.Dims {
		if c.Dims[i], ok = cur.field(); !ok {
			return nil, 0, ErrCorrupt
		}
	}
	b, ok := cur.take(1)
	if !ok {
		return nil, 0, ErrCorrupt
	}
	c.CodecMode = b[0]
	if h.Version >= version5 {
		if b, ok = cur.take(1); !ok {
			return nil, 0, ErrCorrupt
		}
		c.CodecID = CodecID(b[0])
	}
	if h.Version >= version3 {
		if b, ok = cur.take(8); !ok {
			return nil, 0, ErrCorrupt
		}
		c.Min = math.Float32frombits(binary.LittleEndian.Uint32(b))
		c.Max = math.Float32frombits(binary.LittleEndian.Uint32(b[4:]))
	}
	plen, ok := cur.field()
	if !ok {
		return nil, 0, ErrCorrupt
	}
	if err := validateChunkFrame(h, c, plen); err != nil {
		return nil, 0, err
	}
	if b, ok = cur.take(4); !ok {
		return nil, 0, ErrCorrupt
	}
	c.Checksum = binary.LittleEndian.Uint32(b)
	return c, plen, nil
}

// verifyV1ShardPayload cross-checks a frame header against the v1
// container payload it carries: the payload must self-describe as v1 and
// its predictor byte must match the frame's codec-mode nibble (the frame
// header is outside the CRC, so the two must corroborate each other).
func verifyV1ShardPayload(c *ChunkInfo, payload []byte) error {
	if len(payload) < 6 || payload[4] != version {
		return ErrCorrupt
	}
	if payload[5] != c.CodecMode>>4 {
		return fmt.Errorf("core: chunk at plane %d: codec mode %#x disagrees with payload predictor %d: %w",
			c.Offset, c.CodecMode, payload[5], ErrCorrupt)
	}
	return nil
}

// DecompressShardCtx decodes one chunk's payload and validates it against
// the frame header: the decoded dims must match the frame's shard dims.
// With a non-nil ctx the returned slab is context scratch, valid until
// ctx.Reset. v5 chunks dispatch through the codec registry by their wire ID; an
// unknown ID fails with ErrCorrupt. The v1-payload cross-checks apply to
// v2–v4 chunks and to assembly codecs (which wrap v1 containers); a
// registered codec without Options owns its own payload format and only
// its Decompress judges the bytes.
func DecompressShardCtx(ctx *arena.Ctx, dev *gpusim.Device, c *ChunkInfo, payload []byte) ([]float32, error) {
	var recon []float32
	var rdims []int
	var err error
	if c.CodecID != codecInvalid {
		cd, ok := CodecByID(c.CodecID)
		if !ok {
			return nil, fmt.Errorf("core: chunk at plane %d: unknown codec id %d: %w", c.Offset, c.CodecID, ErrCorrupt)
		}
		if _, isAssembly := cd.(optioned); isAssembly {
			if err := verifyV1ShardPayload(c, payload); err != nil {
				return nil, err
			}
		}
		recon, rdims, err = cd.Decompress(ctx, dev, payload)
	} else {
		if err := verifyV1ShardPayload(c, payload); err != nil {
			return nil, err
		}
		recon, rdims, err = DecompressCtx(ctx, dev, payload)
	}
	if err != nil {
		return nil, err
	}
	if len(rdims) != len(c.Dims) {
		return nil, ErrCorrupt
	}
	for i, d := range rdims {
		if d != c.Dims[i] {
			return nil, ErrCorrupt
		}
	}
	return recon, nil
}

// decompressChunked decodes a chunked (v2–v5) container through the same
// index and per-chunk decoder as stream.ReaderAt, over a bytes.Reader:
// chunk 0 is decoded first, then the output field is allocated from the
// caller's ctx (scratch) and the remaining chunks are decoded into it
// concurrently, each worker reading frames into and decoding through its
// own pooled codec context.
func decompressChunked(ctx *arena.Ctx, dev *gpusim.Device, blob []byte) ([]float32, []int, error) {
	x, err := OpenIndex(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		return nil, nil, err
	}
	// Decode the first shard before allocating the full output, so a
	// hostile header over bogus payloads fails before it can force the
	// field-sized allocation. The shard slab is worker-context scratch;
	// it is copied into the output before the context is recycled.
	firstCtx := arena.Get()
	first, err := x.DecodeChunk(firstCtx, dev, 0)
	if err != nil {
		arena.Put(firstCtx)
		return nil, nil, err
	}
	h := x.Header
	out := ctx.F32(h.Total())
	ps := planeSize(h.Dims)
	copy(out, first) // chunk 0 starts at plane 0 (the index tiles the field)
	arena.Put(firstCtx)
	rest := len(x.Entries) - 1
	ctxs := workerCtxs(dev.Workers(), rest)
	defer releaseCtxs(ctxs)
	_, err = pipeline.MapWorker(dev.Workers(), rest, func(w, i int) (struct{}, error) {
		ctx := ctxs[w]
		ctx.Reset()
		recon, err := x.DecodeChunk(ctx, dev, i+1)
		if err != nil {
			return struct{}{}, err
		}
		copy(out[x.Entries[i+1].PlaneOff*ps:], recon)
		return struct{}{}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return out, h.Dims, nil
}

// ---------------------------------------------------------------------------
// Inspection.

// Info summarizes a container without decoding its payloads.
type Info struct {
	Version     int
	Dims        []int
	EB          float64
	RelEB       bool // v3+: EB is value-range-relative
	NumChunks   int  // 0 for v1 containers
	ChunkPlanes int  // 0 for v1 containers
	HasIndex    bool // v4/v5: a chunk-index footer makes the container seekable
	// ChunkCodecs counts chunks per codec name (v5 containers only),
	// computed from the chunk-index footer without touching any payload.
	ChunkCodecs map[string]int
	// ChunkCRs holds each chunk's actual compression ratio (raw plane
	// bytes over on-disk frame bytes), in plane order, computed for
	// indexed (v4/v5) containers from the footer's frame offsets alone.
	// Compared against an auto-mode writer's selection report
	// (stream.Writer.AutoSelections) it closes the estimator-vs-actual
	// observability loop without any container layout change.
	ChunkCRs []float64
}

// Inspect reads a container's headers (any format version) through the
// parsers every decoder uses — the v1 header parser, or the chunked index
// header and (v4/v5) footer loader — so a container it describes is one
// they accept that far.
func Inspect(blob []byte) (*Info, error) {
	if len(blob) < 6 || !bytes.Equal(blob[:4], magic[:]) {
		return nil, ErrCorrupt
	}
	switch blob[4] {
	case version:
		hd, err := parseV1Header(nil, blob)
		if err != nil {
			return nil, err
		}
		return &Info{Version: version, Dims: hd.dims, EB: hd.eb}, nil
	case version2, version3, version4, version5:
		x, err := ReadIndexHeader(bytes.NewReader(blob), int64(len(blob)))
		if err != nil {
			return nil, err
		}
		h := x.Header
		info := &Info{Version: h.Version, Dims: h.Dims, EB: h.EB, RelEB: h.RelEB,
			NumChunks: h.NumChunks, ChunkPlanes: h.ChunkPlanes}
		if h.Version < version4 {
			return info, nil
		}
		if err := x.LoadFooter(); err != nil {
			return nil, err
		}
		info.HasIndex = true
		// The footer alone yields per-chunk observability: frame extents
		// against raw plane bytes give each chunk's actual compression
		// ratio, and for v5 the recorded codec IDs give the codec
		// histogram — no payload is touched for either.
		ps := planeSize(h.Dims)
		info.ChunkCRs = make([]float64, len(x.Entries))
		for i, e := range x.Entries {
			info.ChunkCRs[i] = float64(4*e.Planes*ps) / float64(x.frameLen(i))
		}
		if h.Version >= version5 {
			info.ChunkCodecs = make(map[string]int)
			for _, e := range x.Entries {
				cd, _ := CodecByID(e.Codec) // registered: the footer loader validated it
				info.ChunkCodecs[cd.Name()]++
			}
		}
		return info, nil
	}
	// An unrecognized version byte is indistinguishable from corruption at
	// this layer, so callers must be able to errors.Is it to ErrCorrupt.
	return nil, fmt.Errorf("core: unsupported version %d: %w", blob[4], ErrCorrupt)
}
