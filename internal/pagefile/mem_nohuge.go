//go:build unix && !linux

package pagefile

// adviseHuge has no request to make where there is no MADV_HUGEPAGE.
func adviseHuge([]byte) {}
