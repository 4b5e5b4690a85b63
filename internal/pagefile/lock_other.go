//go:build !unix

package pagefile

import "os"

// openFlags create a page file that does not exist yet: where there is no
// flock, a path that is there already is refused, whoever holds it.
const openFlags = os.O_RDWR | os.O_CREATE | os.O_EXCL

// lock has nothing to take: O_EXCL already refused a file someone holds.
func lock(*os.File) error { return nil }
