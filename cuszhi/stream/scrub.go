// Store scrubbing: deep integrity verification without decoding to
// floats. Scrub walks every chunk frame of a sealed container, checking
// each frame header parses, each payload CRC matches, the chunk-index
// footer (v4/v5) CRCs and cross-checks against the frames it claims to
// seal, and the global header agrees with what the frames prove — the
// audit a production store runs periodically to catch bit-rot before a
// reader does. Damage is localized per chunk, never aborting the walk
// while the frame chain stays parseable, so one report names every rotten
// chunk a repair or degraded read will encounter.
package stream

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
)

// ScrubReport is the result of deep-verifying one container.
type ScrubReport struct {
	Version   int   // container format version
	SizeBytes int64 // scanned size
	Chunks    int   // chunks the container claims
	Verified  int   // chunks that passed every check
	// Damaged lists the chunks that failed a check, ascending by index.
	// A damaged chunk is exactly one a degraded read would fill.
	Damaged []ChunkDamage
	// FooterErr is non-nil when a v4/v5 container's chunk-index footer is
	// itself damaged (bad tail magic, CRC mismatch, frames/footer
	// disagreement). The frames are then verified by sequential walk.
	FooterErr error
	// HeaderErr is non-nil when the global header disagrees with what the
	// frames prove (plane count, chunk count), or frames are missing.
	HeaderErr error
}

// Clean reports whether the container passed every check.
func (s *ScrubReport) Clean() bool {
	return len(s.Damaged) == 0 && s.FooterErr == nil && s.HeaderErr == nil
}

// Summary renders the report as one line per problem (or "clean").
func (s *ScrubReport) Summary() string {
	if s.Clean() {
		return fmt.Sprintf("clean: v%d, %d chunk(s) verified, %d bytes", s.Version, s.Verified, s.SizeBytes)
	}
	out := fmt.Sprintf("damaged: %d of %d chunk(s) failed verification", len(s.Damaged), s.Chunks)
	for _, d := range s.Damaged {
		out += fmt.Sprintf("\n  chunk %d @0x%x (planes %d..%d): %v",
			d.Chunk, d.Offset, d.PlaneOff, d.PlaneOff+d.Planes, d.Err)
	}
	if s.FooterErr != nil {
		out += fmt.Sprintf("\n  footer: %v", s.FooterErr)
	}
	if s.HeaderErr != nil {
		out += fmt.Sprintf("\n  header: %v", s.HeaderErr)
	}
	return out
}

// Scrub deep-verifies the container held by src (size bytes long) without
// decoding any chunk to floats: every frame header must parse, every
// payload CRC must match, and for v4/v5 the chunk-index footer must CRC
// and agree with the frames entry by entry. WithRetry applies to every
// read the scrub issues. The returned report localizes damage per chunk;
// the error return is reserved for containers too damaged to scrub at all
// (unparseable global header, not a container) — v1 blobs, which carry no
// frame checksums, are also rejected here.
func Scrub(src io.ReaderAt, size int64, opt ...Option) (*ScrubReport, error) {
	cfg := newConfig(opt)
	src = cfg.retry.WrapReaderAt(src)
	var pre [5]byte
	if size < int64(len(pre)) {
		return nil, core.ErrCorrupt
	}
	if err := core.ReadFullAt(src, pre[:], 0); err != nil {
		return nil, core.ErrCorrupt
	}
	version, ok := core.SniffVersion(pre[:])
	if !ok {
		return nil, core.ErrCorrupt
	}
	if version == 1 {
		return nil, errors.New("stream: scrub requires a chunked container (v2+); v1 blobs carry no frame checksums")
	}
	cr := &countReader{r: io.NewSectionReader(src, 0, size)}
	h, err := core.ReadChunkedHeader(cr)
	if err != nil {
		return nil, err
	}
	rep := &ScrubReport{Version: h.Version, SizeBytes: size, Chunks: h.NumChunks}
	headerLen := cr.n
	if h.Version >= 4 {
		entries, framesEnd, ferr := scrubIndex(src, size, h, headerLen)
		if ferr == nil {
			scrubWithIndex(src, h, entries, framesEnd, rep)
			return rep, nil
		}
		// The footer itself is damaged: record that and verify the frames
		// by sequential walk instead — the header still locates them.
		rep.FooterErr = ferr
	}
	scrubSequential(src, size, h, headerLen, rep)
	return rep, nil
}

// scrubIndex loads and validates a v4/v5 chunk-index footer the way
// OpenReaderAt does, returning the entries and the frame-region end.
func scrubIndex(src io.ReaderAt, size int64, h *core.ChunkedInfo, headerLen int64) ([]core.IndexEntry, int64, error) {
	if size < headerLen+core.IndexTailLen {
		return nil, 0, fmt.Errorf("no room for the index tail: %w", core.ErrCorrupt)
	}
	var tail [core.IndexTailLen]byte
	if err := core.ReadFullAt(src, tail[:], size-core.IndexTailLen); err != nil {
		return nil, 0, err
	}
	footerOff, err := core.ParseChunkIndexTail(tail[:])
	if err != nil {
		return nil, 0, err
	}
	if footerOff < headerLen || footerOff > size-core.IndexTailLen {
		return nil, 0, fmt.Errorf("index backpointer 0x%x outside the file: %w", footerOff, core.ErrCorrupt)
	}
	regionLen := size - core.IndexTailLen - footerOff
	if regionLen > int64(h.NumChunks)*30+64 {
		return nil, 0, fmt.Errorf("index region oversized (%d bytes): %w", regionLen, core.ErrCorrupt)
	}
	region := make([]byte, regionLen)
	if err := core.ReadFullAt(src, region, footerOff); err != nil {
		return nil, 0, err
	}
	entries, err := core.ParseChunkIndex(region, h, footerOff)
	if err != nil {
		return nil, 0, err
	}
	if entries[0].FrameOff != headerLen {
		return nil, 0, fmt.Errorf("first frame offset 0x%x disagrees with header end 0x%x: %w",
			entries[0].FrameOff, headerLen, core.ErrCorrupt)
	}
	return entries, footerOff, nil
}

// scrubWithIndex verifies each frame against its (already CRC-valid)
// footer entry: the frame header must parse, agree with the entry on
// plane offset, plane count and codec, end exactly where the next frame
// starts, and its payload CRC must match. Every chunk is checked — the
// footer locates frames independently, so damage in one never hides
// damage in another.
func scrubWithIndex(src io.ReaderAt, h *core.ChunkedInfo, entries []core.IndexEntry, framesEnd int64, rep *ScrubReport) {
	if len(entries) != h.NumChunks {
		rep.HeaderErr = fmt.Errorf("header claims %d chunks, index holds %d: %w",
			h.NumChunks, len(entries), core.ErrCorrupt)
	}
	planes := 0
	var buf [core.MaxFrameHeaderLen]byte
	for i, e := range entries {
		planes += e.Planes
		end := framesEnd
		if i+1 < len(entries) {
			end = entries[i+1].FrameOff
		}
		err := scrubFrame(src, h, e, end, buf[:])
		if err != nil {
			rep.Damaged = append(rep.Damaged, ChunkDamage{
				Chunk: i, Offset: e.FrameOff, PlaneOff: e.PlaneOff, Planes: e.Planes, Err: err})
			continue
		}
		rep.Verified++
	}
	if rep.HeaderErr == nil && planes != h.Dims[0] {
		rep.HeaderErr = fmt.Errorf("header claims %d planes, frames cover %d: %w",
			h.Dims[0], planes, core.ErrCorrupt)
	}
}

// scrubFrame runs every check one indexed frame supports.
func scrubFrame(src io.ReaderAt, h *core.ChunkedInfo, e core.IndexEntry, end int64, buf []byte) error {
	want := min(int64(len(buf)), end-e.FrameOff)
	if want <= 0 {
		return fmt.Errorf("frame region empty: %w", core.ErrCorrupt)
	}
	if err := core.ReadFullAt(src, buf[:want], e.FrameOff); err != nil {
		return err
	}
	c, payStart, plen, err := core.ScanFrameHeader(buf[:want], h)
	if err != nil {
		return err
	}
	if c.Offset != e.PlaneOff || c.Dims[0] != e.Planes {
		return fmt.Errorf("frame covers planes %d+%d, index says %d+%d: %w",
			c.Offset, c.Dims[0], e.PlaneOff, e.Planes, core.ErrCorrupt)
	}
	if c.CodecID != e.Codec {
		return fmt.Errorf("frame codec %s disagrees with index codec %s: %w",
			core.CodecLabel(c.CodecID), core.CodecLabel(e.Codec), core.ErrCorrupt)
	}
	if e.FrameOff+int64(payStart)+int64(plen) != end {
		return fmt.Errorf("frame ends at 0x%x, next frame starts at 0x%x: %w",
			e.FrameOff+int64(payStart)+int64(plen), end, core.ErrCorrupt)
	}
	crc, err := core.CRC32At(src, e.FrameOff+int64(payStart), int64(plen))
	if err != nil {
		return err
	}
	if crc != c.Checksum {
		return fmt.Errorf("payload checksum mismatch: %w", core.ErrCorrupt)
	}
	return nil
}

// scrubSequential verifies frames by walking the chain from the header,
// for containers without a usable footer (v2/v3, or v4/v5 whose footer is
// itself damaged). A payload CRC mismatch doesn't stop the walk — the
// frame header still gives the next frame's position — but an unparseable
// frame header does: past it every offset is guesswork.
func scrubSequential(src io.ReaderAt, size int64, h *core.ChunkedInfo, headerLen int64, rep *ScrubReport) {
	off := headerLen
	nextPlane := 0
	var buf [core.MaxFrameHeaderLen]byte
	i := 0
	for ; i < h.NumChunks; i++ {
		want := min(int64(len(buf)), size-off)
		if want <= 0 {
			break
		}
		if err := core.ReadFullAt(src, buf[:want], off); err != nil {
			rep.Damaged = append(rep.Damaged, ChunkDamage{Chunk: i, Offset: off, PlaneOff: nextPlane, Err: err})
			return
		}
		c, payStart, plen, err := core.ScanFrameHeader(buf[:want], h)
		if err == nil && c.Offset != nextPlane {
			err = fmt.Errorf("frame covers plane %d, expected %d: %w", c.Offset, nextPlane, core.ErrCorrupt)
		}
		if err == nil && off+int64(payStart)+int64(plen) > size {
			err = fmt.Errorf("frame payload runs past EOF: %w", core.ErrCorrupt)
		}
		if err != nil {
			// Structural damage: the walk cannot step past this frame.
			rep.Damaged = append(rep.Damaged, ChunkDamage{Chunk: i, Offset: off, PlaneOff: nextPlane, Err: err})
			return
		}
		crc, err := core.CRC32At(src, off+int64(payStart), int64(plen))
		if err != nil {
			rep.Damaged = append(rep.Damaged, ChunkDamage{
				Chunk: i, Offset: off, PlaneOff: c.Offset, Planes: c.Dims[0], Err: err})
		} else if crc != c.Checksum {
			rep.Damaged = append(rep.Damaged, ChunkDamage{
				Chunk: i, Offset: off, PlaneOff: c.Offset, Planes: c.Dims[0],
				Err: fmt.Errorf("payload checksum mismatch: %w", core.ErrCorrupt)})
		} else {
			rep.Verified++
		}
		off += int64(payStart) + int64(plen)
		nextPlane += c.Dims[0]
	}
	switch {
	case i < h.NumChunks:
		rep.HeaderErr = fmt.Errorf("frames end after chunk %d of %d: %w", i, h.NumChunks, core.ErrCorrupt)
	case nextPlane != h.Dims[0]:
		rep.HeaderErr = fmt.Errorf("header claims %d planes, frames cover %d: %w",
			h.Dims[0], nextPlane, core.ErrCorrupt)
	case h.Version < 4 && off != size:
		rep.HeaderErr = fmt.Errorf("%d trailing bytes after the frames: %w", size-off, core.ErrCorrupt)
	}
}
