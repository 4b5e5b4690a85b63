//go:build unix

package pagefile

import (
	"os"
	"syscall"
)

// openFlags open a page file without truncating it: OpenDisk truncates only
// once it holds the lock.
const openFlags = os.O_RDWR | os.O_CREATE

// lock takes an exclusive advisory lock on f without waiting for it. The
// lock lasts until f is closed, and a process that dies leaves none behind.
func lock(f *os.File) error {
	return syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
}
