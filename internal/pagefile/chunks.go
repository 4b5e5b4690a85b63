package pagefile

import "sync/atomic"

// firstChunk and maxChunk bound the chunks a File maps its page memory in:
// the first is small, so that a shard's share of a store split many ways
// maps little more than it holds, and each after it is as large as all
// before it, up to maxChunk, unless a reservation asks for more.
const (
	firstChunk = 64 << 10
	maxChunk   = 32 << 20
)

// mapped is the page memory every File of the process holds mapped.
var mapped atomic.Int64

// MappedBytes reports how many bytes of page memory the process's Files
// hold mapped: what Close, or the cleanup of a File dropped unclosed, gives
// back. Tests read it.
func MappedBytes() int64 { return mapped.Load() }

// chunks is a File's page memory: the chunks it mapped, carved front to
// back. It is an object of its own so that the File's cleanup can release
// it once the File is unreachable.
type chunks struct {
	all  [][]byte // every chunk mapped, whole
	free []byte   // the uncarved tail of the last
	size int      // bytes mapped
}

// reserve makes sure the current chunk has n bytes left, mapping a new one
// of at least want bytes if it has not. The chunk left behind keeps its
// tail uncarved.
func (c *chunks) reserve(n, want int) error {
	if len(c.free) >= n {
		return nil
	}
	size := (max(n, want) + chunkAlign - 1) / chunkAlign * chunkAlign
	b, err := mapChunk(size)
	if err != nil {
		return err
	}
	c.all = append(c.all, b)
	c.free = b
	c.size += size
	mapped.Add(int64(size))
	return nil
}

// carve cuts the next n bytes, in a chunk as large as all before it
// (firstChunk to maxChunk) when the current one has too few left.
func (c *chunks) carve(n int) ([]byte, error) {
	if err := c.reserve(n, min(maxChunk, max(firstChunk, c.size))); err != nil {
		return nil, err
	}
	b := c.free[:n:n]
	c.free = c.free[n:]
	return b, nil
}

// release unmaps every chunk. It is the File's Close and its cleanup.
func (c *chunks) release() {
	for _, b := range c.all {
		unmapChunk(b)
	}
	mapped.Add(-int64(c.size))
	*c = chunks{}
}
