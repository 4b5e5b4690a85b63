//go:build !unix

package pagefile

// chunkAlign is the granule a chunk's size is rounded up to.
const chunkAlign = 4096

// mapChunk allocates a chunk on the Go heap: where there is no mmap, page
// memory is the collector's like any other.
func mapChunk(size int) ([]byte, error) { return make([]byte, size), nil }

// unmapChunk has nothing to give back: the collector frees the chunk once
// no page refers to it.
func unmapChunk([]byte) {}
