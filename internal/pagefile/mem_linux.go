package pagefile

import "syscall"

// adviseHuge asks Linux to back a chunk of 2 MiB or more with transparent
// huge pages. A fresh mapping faults on first touch, where the heap a
// store's pages used to take is often memory the process has touched
// before; with huge pages a bulk load takes one fault per 2 MiB instead of
// one per 4 KiB (a 20,000 x 256 bulk load on 2 CPUs, 3 runs of 10: 123-138
// ms with 4 KiB faults, 86-116 ms with huge pages, 109-121 ms with the
// pages on the heap). It is a hint: a system that offers no huge pages on
// request refuses it, and the chunk is used as mapped.
func adviseHuge(b []byte) {
	if len(b) >= 2<<20 {
		_ = syscall.Madvise(b, syscall.MADV_HUGEPAGE) // a hint: see above
	}
}
