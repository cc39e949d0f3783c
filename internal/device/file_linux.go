//go:build linux

package device

import (
	"fmt"
	"io"
	"syscall"
	"unsafe"
)

// iovMax is the kernel's per-call iovec limit (IOV_MAX / UIO_MAXIOV).
const iovMax = 1024

// fileVec is the linux vectored-I/O scratch: the iovec array reused
// across bursts so a steady-state shuffle quantum allocates nothing.
type fileVec struct {
	iov []syscall.Iovec
}

// preadvAt fills bufs from the contiguous file range starting at off
// using preadv, chunked to IOV_MAX, retrying EINTR and resuming after
// partial transfers.
func (d *File) preadvAt(bufs [][]byte, off int64) error {
	return d.vectoredAt(bufs, off, false)
}

// pwritevAt writes bufs to the contiguous file range starting at off
// using pwritev.
func (d *File) pwritevAt(bufs [][]byte, off int64) error {
	return d.vectoredAt(bufs, off, true)
}

func (d *File) vectoredAt(bufs [][]byte, off int64, write bool) error {
	trap := uintptr(syscall.SYS_PREADV)
	if write {
		trap = uintptr(syscall.SYS_PWRITEV)
	}
	fd := d.f.Fd()
	for len(bufs) > 0 {
		n := len(bufs)
		if n > iovMax {
			n = iovMax
		}
		iov := d.vec.iov[:0]
		total := 0
		for _, b := range bufs[:n] {
			if len(b) == 0 {
				continue
			}
			iov = append(iov, syscall.Iovec{Base: &b[0], Len: uint64(len(b))})
			total += len(b)
		}
		d.vec.iov = iov // keep the (possibly grown) capacity
		for total > 0 {
			// pos is split low/high; on 64-bit the kernel ORs them back
			// together, on 32-bit they are genuinely separate halves.
			r1, _, errno := syscall.Syscall6(trap, fd,
				uintptr(unsafe.Pointer(&iov[0])), uintptr(len(iov)),
				uintptr(off), uintptr(off>>32), 0)
			if errno == syscall.EINTR {
				continue
			}
			if errno != 0 {
				return errno
			}
			got := int(r1)
			if got <= 0 {
				if write {
					return fmt.Errorf("pwritev: %w", io.ErrShortWrite)
				}
				return fmt.Errorf("preadv: %w", io.ErrUnexpectedEOF)
			}
			total -= got
			off += int64(got)
			if total == 0 {
				break
			}
			// Partial transfer: drop fully-consumed iovecs and trim the
			// boundary one, then resume at the advanced offset.
			for got > 0 {
				if int(iov[0].Len) <= got {
					got -= int(iov[0].Len)
					iov = iov[1:]
				} else {
					iov[0].Base = (*byte)(unsafe.Add(unsafe.Pointer(iov[0].Base), got))
					iov[0].Len -= uint64(got)
					got = 0
				}
			}
		}
		bufs = bufs[n:]
	}
	return nil
}

// syncFileRangeWrite is SYNC_FILE_RANGE_WRITE: start write-out of the
// range's dirty pages without waiting for it to finish.
const syncFileRangeWrite = 2

// startWriteback asks the kernel to begin writing the byte range
// [off, off+n) to the medium now, instead of leaving it dirty until
// the next Sync. A shuffle period rewrites the whole storage file one
// partition burst at a time and then Syncs; left dirty, the whole file
// would flush in that one fsync and stall the period's last cycle for
// tens of milliseconds. It is only a hint: durability still comes from
// Sync.
func (d *File) startWriteback(off, n int64) {
	syscall.SyncFileRange(int(d.f.Fd()), off, n, syncFileRangeWrite) //horam:errok advisory; Sync reports any write-out failure
}
