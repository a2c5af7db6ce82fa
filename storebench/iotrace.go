package main

import (
	"io"
	"os"
	"sync/atomic"
	"time"
)

// storeFile is what the benchmark hands to NewWriter, OpenReaderAt,
// OpenAppend and Scrub: *os.File in untraced passes, a timingFile in
// traced ones.
type storeFile interface {
	io.Writer
	io.ReaderAt
	io.WriterAt
	Truncate(size int64) error
	Sync() error
	Stat() (os.FileInfo, error)
	Close() error
}

// ioOp counts one kind of file operation. Readers decode chunks on
// several workers at once, so the counters are atomic.
type ioOp struct {
	calls, bytes, nanos atomic.Int64
}

func (o *ioOp) add(n int, t0 time.Time) {
	o.nanos.Add(int64(time.Since(t0)))
	o.calls.Add(1)
	o.bytes.Add(int64(n))
}

// ioTotal is a plain snapshot of one or more ioOps.
type ioTotal struct {
	calls, bytes int64
	secs         float64
}

func (o *ioOp) total() ioTotal {
	return ioTotal{o.calls.Load(), o.bytes.Load(), float64(o.nanos.Load()) / 1e9}
}

func (a ioTotal) plus(b ioTotal) ioTotal {
	return ioTotal{a.calls + b.calls, a.bytes + b.bytes, a.secs + b.secs}
}

// ioStats is the io layer's record for one phase of a pass.
type ioStats struct {
	write, writeAt, readAt, sync, truncate ioOp
}

// writes merges sequential and positioned writes.
func (s *ioStats) writes() ioTotal { return s.write.total().plus(s.writeAt.total()) }

// timingFile wraps an *os.File, recording bytes, calls and time of every
// Write, WriteAt, ReadAt, Sync and Truncate into the stats it points at.
// A pass wraps a file anew for each phase, so each phase has its own
// record.
type timingFile struct {
	f  *os.File
	st *ioStats
}

func (t *timingFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := t.f.Write(p)
	t.st.write.add(n, t0)
	return n, err
}

func (t *timingFile) WriteAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := t.f.WriteAt(p, off)
	t.st.writeAt.add(n, t0)
	return n, err
}

func (t *timingFile) ReadAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := t.f.ReadAt(p, off)
	t.st.readAt.add(n, t0)
	return n, err
}

func (t *timingFile) Sync() error {
	t0 := time.Now()
	err := t.f.Sync()
	t.st.sync.add(0, t0)
	return err
}

func (t *timingFile) Truncate(size int64) error {
	t0 := time.Now()
	err := t.f.Truncate(size)
	t.st.truncate.add(0, t0)
	return err
}

func (t *timingFile) Stat() (os.FileInfo, error) { return t.f.Stat() }
func (t *timingFile) Close() error               { return t.f.Close() }
