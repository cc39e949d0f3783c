//go:build !linux

package device

import "fmt"

// fileVec is the portable vectored-I/O scratch: a contiguous staging
// buffer that turns a burst into one ReadAt/WriteAt.
type fileVec struct {
	scratch []byte
}

func (d *File) stage(n int) []byte {
	if cap(d.vec.scratch) < n {
		d.vec.scratch = make([]byte, n)
	}
	return d.vec.scratch[:n]
}

// preadvAt fills bufs from the contiguous file range starting at off
// with a single ReadAt through a staging buffer.
func (d *File) preadvAt(bufs [][]byte, off int64) error {
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	s := d.stage(total)
	if _, err := d.f.ReadAt(s, off); err != nil {
		return fmt.Errorf("pread: %w", err)
	}
	for _, b := range bufs {
		copy(b, s[:len(b)])
		s = s[len(b):]
	}
	return nil
}

// pwritevAt writes bufs to the contiguous file range starting at off
// with a single WriteAt through a staging buffer.
func (d *File) pwritevAt(bufs [][]byte, off int64) error {
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	s := d.stage(total)
	rest := s
	for _, b := range bufs {
		copy(rest, b)
		rest = rest[len(b):]
	}
	if _, err := d.f.WriteAt(s, off); err != nil {
		return fmt.Errorf("pwrite: %w", err)
	}
	return nil
}

// startWriteback is a no-op off linux; the next Sync flushes the range.
func (d *File) startWriteback(off, n int64) {}
