//go:build unix

package pagefile

import (
	"fmt"
	"syscall"
)

// chunkAlign is the granule a chunk's size is rounded up to: the system's
// page size, so that every byte a mapping takes is one a File can carve.
var chunkAlign = syscall.Getpagesize()

// mapChunk maps size bytes of zeroed, private, anonymous memory outside the
// Go heap, asking for huge pages where the system has them (adviseHuge).
func mapChunk(size int) ([]byte, error) {
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("pagefile: mapping %d bytes of page memory: %w", size, err)
	}
	adviseHuge(b)
	return b, nil
}

// unmapChunk gives a chunk mapChunk returned back to the system. No slice
// of it may be touched afterwards. Munmap fails only for a slice Mmap did
// not return, which no caller holds.
func unmapChunk(b []byte) {
	if err := syscall.Munmap(b); err != nil {
		panic(fmt.Sprintf("pagefile: unmapping %d bytes of page memory: %v", len(b), err))
	}
}
