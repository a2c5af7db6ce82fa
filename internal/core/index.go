// The read side of chunked (v2–v5) containers, in one place: every route
// that reads a container — Decompress over a bytes.Reader, the random-
// access stream.ReaderAt over a file, stream.Scrub and ScanRecovery —
// locates its frames through an Index and decodes them through its
// ReadFrame/DecodeChunk.
//
//   - ReadIndexHeader parses the global header and learns its length.
//   - LoadFooter is the one chunk-index footer loader (v4/v5).
//   - Walk is the one sequential frame walker; the caller decides what a
//     frame's CRC means and whether to go on.
//   - ReadFrame reads one indexed frame, cross-checks it against its entry
//     and verifies its CRC; DecodeChunk then decodes it.
package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/arena"
	"repro/internal/bitio"
	"repro/internal/gpusim"
)

// Index locates the chunk frames of a chunked container held by an
// io.ReaderAt.
type Index struct {
	Header    *ChunkedInfo
	HeaderLen int64        // byte length of the global header: where frame 0 starts
	Entries   []IndexEntry // one per chunk, in plane order (empty until loaded)
	FramesEnd int64        // where the last frame ends: the footer offset (v4/v5) or EOF
	src       io.ReaderAt
	size      int64
}

// ReadIndexHeader parses the global header of the chunked container held
// by src (size bytes long). The returned Index holds no entries yet: fill
// them with LoadFooter, or visit the frames with Walk.
func ReadIndexHeader(src io.ReaderAt, size int64) (*Index, error) {
	sr := io.NewSectionReader(src, 0, size)
	h, err := ReadChunkedHeader(sr)
	if err != nil {
		return nil, err
	}
	n, _ := sr.Seek(0, io.SeekCurrent)
	return &Index{Header: h, HeaderLen: n, src: src, size: size}, nil
}

// OpenIndex indexes the chunked container held by src for reading: v4/v5
// containers from their footer, without touching any payload; v2/v3 from
// one walk over their frame headers, which must cover the field and end
// exactly at EOF.
func OpenIndex(src io.ReaderAt, size int64) (*Index, error) {
	x, err := ReadIndexHeader(src, size)
	if err != nil {
		return nil, err
	}
	if x.Header.Version >= version4 {
		err = x.LoadFooter()
	} else {
		err = x.scan()
	}
	if err != nil {
		return nil, err
	}
	return x, nil
}

// LoadFooter reads a v4/v5 chunk-index footer into x.Entries: the fixed
// tail gives the backpointer, which must land between the header and the
// tail; the index region must be of plausible size, CRC-valid and agree
// with the header; and the first frame must start where the header ends.
func (x *Index) LoadFooter() error {
	if x.size < x.HeaderLen+IndexTailLen {
		return fmt.Errorf("core: no room for the index tail: %w", ErrCorrupt)
	}
	var tail [IndexTailLen]byte
	if err := readAt(x.src, tail[:], x.size-IndexTailLen); err != nil {
		return err
	}
	footerOff, err := parseChunkIndexTail(tail[:])
	if err != nil {
		return err
	}
	if footerOff < x.HeaderLen || footerOff > x.size-IndexTailLen {
		return fmt.Errorf("core: index backpointer 0x%x outside the file: %w", footerOff, ErrCorrupt)
	}
	// Four uvarints per entry plus the count and CRC: a region wildly
	// larger than that is hostile, not an index.
	regionLen := x.size - IndexTailLen - footerOff
	if regionLen > int64(x.Header.NumChunks)*30+64 {
		return fmt.Errorf("core: index region oversized (%d bytes): %w", regionLen, ErrCorrupt)
	}
	region := make([]byte, regionLen)
	if err := readAt(x.src, region, footerOff); err != nil {
		return err
	}
	entries, err := parseChunkIndex(region, x.Header, footerOff)
	if err != nil {
		return err
	}
	if entries[0].FrameOff != x.HeaderLen {
		return fmt.Errorf("core: first frame offset 0x%x disagrees with header end 0x%x: %w",
			entries[0].FrameOff, x.HeaderLen, ErrCorrupt)
	}
	x.Entries, x.FramesEnd = entries, footerOff
	return nil
}

// Walk steps through up to n frames from the end of the header, stopping
// early at EOF. For each frame it reads the header with one ReadAt of at
// most MaxFrameHeaderLen bytes, parses it, checks that the frame continues
// the plane coverage and that its payload ends inside the file, and hands
// yield the frame's offset, header and payload extent; yield returns false
// to stop. Walk returns where it stopped (the offset of the next, or the
// refused, frame), how many planes the walked frames cover, and the error
// of a frame that failed those checks. Payload CRCs are the caller's call.
func (x *Index) Walk(n int, yield func(off int64, c *ChunkInfo, payOff, plen int64) bool) (next int64, planes int, err error) {
	buf := make([]byte, MaxFrameHeaderLen)
	next = x.HeaderLen
	for i := 0; i < n && next < x.size; i++ {
		want := min(int64(len(buf)), x.size-next)
		if err := readAt(x.src, buf[:want], next); err != nil {
			return next, planes, err
		}
		c, payStart, plen, err := ScanFrameHeader(buf[:want], x.Header)
		if err != nil {
			return next, planes, err
		}
		if c.Offset != planes {
			return next, planes, fmt.Errorf("core: frame covers plane %d, expected %d: %w", c.Offset, planes, ErrCorrupt)
		}
		payOff := next + int64(payStart)
		if payOff+int64(plen) > x.size {
			return next, planes, fmt.Errorf("core: frame payload runs past EOF: %w", ErrCorrupt)
		}
		if !yield(next, c, payOff, int64(plen)) {
			return next, planes, nil
		}
		planes += c.Dims[0]
		next = payOff + int64(plen)
	}
	return next, planes, nil
}

// scan indexes a footer-less (v2/v3) container by walking its frames: any
// damage fails, and the frames must cover the field and end at EOF.
func (x *Index) scan() error {
	h := x.Header
	next, planes, err := x.Walk(h.NumChunks, func(off int64, c *ChunkInfo, _, _ int64) bool {
		x.Entries = append(x.Entries, IndexEntry{FrameOff: off, PlaneOff: c.Offset, Planes: c.Dims[0]})
		return true
	})
	if err != nil {
		return err
	}
	if len(x.Entries) != h.NumChunks || planes != h.Dims[0] || next != x.size {
		return ErrCorrupt
	}
	x.FramesEnd = next
	return nil
}

// frameLen returns the byte extent of indexed frame i: up to the next
// frame, or to where the frames end.
func (x *Index) frameLen(i int) int64 {
	end := x.FramesEnd
	if i+1 < len(x.Entries) {
		end = x.Entries[i+1].FrameOff
	}
	return end - x.Entries[i].FrameOff
}

// ReadFrame reads indexed frame i into ctx scratch (valid until
// ctx.Reset) with one ReadAt, parses its header, cross-checks it against
// its entry — codec, plane offset, plane count, and that the frame
// exactly fills its extent — and verifies the payload CRC. It returns the
// frame header and the payload.
func (x *Index) ReadFrame(ctx *arena.Ctx, i int) (*ChunkInfo, []byte, error) {
	e := x.Entries[i]
	n := x.frameLen(i)
	// No valid frame outgrows its header plus the payload cap, so a lying
	// index cannot force a larger read.
	if n > MaxFrameHeaderLen+min(16*int64(e.Planes)*int64(planeSize(x.Header.Dims))+1<<20, 1<<31) {
		return nil, nil, fmt.Errorf("core: chunk at plane %d: %d-byte frame is oversized: %w", e.PlaneOff, n, ErrCorrupt)
	}
	buf := ctx.Bytes(int(n))
	if err := readAt(x.src, buf, e.FrameOff); err != nil {
		return nil, nil, err
	}
	c, payStart, plen, err := ScanFrameHeader(buf, x.Header)
	if err != nil {
		return nil, nil, err
	}
	if c.CodecID != e.Codec {
		return nil, nil, fmt.Errorf("core: chunk index codec %s disagrees with frame codec %s at plane %d: %w",
			CodecLabel(e.Codec), CodecLabel(c.CodecID), e.PlaneOff, ErrCorrupt)
	}
	if c.Offset != e.PlaneOff || c.Dims[0] != e.Planes || payStart+plen != len(buf) {
		return nil, nil, fmt.Errorf("core: chunk index disagrees with frame at plane %d: %w", e.PlaneOff, ErrCorrupt)
	}
	payload := buf[payStart:]
	if err := VerifyChunkPayload(c, payload); err != nil {
		return nil, nil, err
	}
	return c, payload, nil
}

// DecodeChunk reads and verifies indexed chunk i (ReadFrame) and decodes
// it. The frame bytes and the returned slab are ctx scratch, valid until
// ctx.Reset.
func (x *Index) DecodeChunk(ctx *arena.Ctx, dev *gpusim.Device, i int) ([]float32, error) {
	c, payload, err := x.ReadFrame(ctx, i)
	if err != nil {
		return nil, err
	}
	return DecompressShardCtx(ctx, dev, c, payload)
}

// readAt reads len(p) bytes at off. A transient I/O failure comes back as
// is, so callers can tell a flaky device from a rotten store; any other
// failure means the bytes are not there: ErrCorrupt.
func readAt(src io.ReaderAt, p []byte, off int64) error {
	err := ReadFullAt(src, p, off)
	if err != nil && !IsTransient(err) {
		return fmt.Errorf("core: %d bytes at 0x%x unreadable (%v): %w", len(p), off, err, ErrCorrupt)
	}
	return err
}

// parseChunkIndexTail reads the fixed-size v4 tail (the last IndexTailLen
// bytes of a container), returning the backpointer to the index body.
func parseChunkIndexTail(tail []byte) (footerOff int64, err error) {
	if len(tail) != IndexTailLen || !bytes.Equal(tail[8:], indexMagic[:]) {
		return 0, ErrCorrupt
	}
	v := binary.LittleEndian.Uint64(tail[:8])
	if v > 1<<62 {
		return 0, ErrCorrupt
	}
	return int64(v), nil
}

// parseChunkIndex decodes and validates a v4 index region — the bytes from
// the backpointer up to (not including) the fixed tail, i.e. the index
// body plus its CRC. The entries must agree with the global header: one
// entry per chunk, frame offsets strictly increasing and below footerOff,
// plane spans tiling [0, Dims[0]) contiguously with no chunk thicker than
// ChunkPlanes.
func parseChunkIndex(region []byte, h *ChunkedInfo, footerOff int64) ([]IndexEntry, error) {
	if len(region) < 5 {
		return nil, ErrCorrupt
	}
	body := region[:len(region)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(region[len(region)-4:]) {
		return nil, fmt.Errorf("core: chunk index checksum mismatch: %w", ErrCorrupt)
	}
	off := 0
	readUv := func() (uint64, bool) {
		v, n := bitio.Uvarint(body[off:])
		if n == 0 {
			return 0, false
		}
		off += n
		return v, true
	}
	nc, ok := readUv()
	if !ok || int(nc) != h.NumChunks {
		return nil, ErrCorrupt
	}
	entries := make([]IndexEntry, h.NumChunks)
	nextPlane := 0
	prevOff := int64(-1)
	for i := range entries {
		fo, ok1 := readUv()
		po, ok2 := readUv()
		pl, ok3 := readUv()
		if !ok1 || !ok2 || !ok3 {
			return nil, ErrCorrupt
		}
		e := IndexEntry{FrameOff: int64(fo), PlaneOff: int(po), Planes: int(pl)}
		if h.Version >= version5 {
			cv, ok := readUv()
			if !ok || cv == 0 || cv > 255 {
				return nil, ErrCorrupt
			}
			if _, ok := CodecByID(CodecID(cv)); !ok {
				return nil, fmt.Errorf("core: chunk index entry %d: unknown codec id %d: %w", i, cv, ErrCorrupt)
			}
			e.Codec = CodecID(cv)
		}
		if fo > 1<<62 || e.FrameOff <= prevOff || e.FrameOff >= footerOff {
			return nil, ErrCorrupt
		}
		if e.PlaneOff != nextPlane || e.Planes <= 0 || e.Planes > h.ChunkPlanes ||
			e.PlaneOff+e.Planes > h.Dims[0] {
			return nil, ErrCorrupt
		}
		prevOff = e.FrameOff
		nextPlane += e.Planes
		entries[i] = e
	}
	if nextPlane != h.Dims[0] || off != len(body) {
		return nil, ErrCorrupt
	}
	return entries, nil
}
