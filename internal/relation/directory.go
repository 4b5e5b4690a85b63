package relation

// dirPageBits sizes a directory page: 1024 entries, 4 KiB.
const dirPageBits = 10

// directory maps record ids to slots through a paged array: ids are
// counter-assigned and dense, so a lookup is a shift, a mask and two loads
// instead of a hash probe. An entry holds slot+1 (0 is "absent") and costs
// 4 bytes; a page none of whose ids was ever stored is never allocated, so a
// shard that sees every fourth global id pays 4 bytes per skipped id and a
// gap of a million ids pays 8 bytes per thousand.
type directory struct {
	pages []*[1 << dirPageBits]int32
}

// get returns the slot stored for id.
func (d *directory) get(id int64) (slot int32, ok bool) {
	// A negative id shifts to a page number past any table.
	p := uint64(id) >> dirPageBits
	if p >= uint64(len(d.pages)) || d.pages[p] == nil {
		return 0, false
	}
	e := d.pages[p][id&(1<<dirPageBits-1)]
	return e - 1, e != 0
}

// set stores slot for id, which must not be negative.
func (d *directory) set(id int64, slot int32) {
	p := int(id >> dirPageBits)
	if p >= len(d.pages) {
		d.pages = append(d.pages, make([]*[1 << dirPageBits]int32, p+1-len(d.pages))...)
	}
	if d.pages[p] == nil {
		d.pages[p] = new([1 << dirPageBits]int32)
	}
	d.pages[p][id&(1<<dirPageBits-1)] = slot + 1
}

// drop forgets a stored id.
func (d *directory) drop(id int64) {
	d.pages[id>>dirPageBits][id&(1<<dirPageBits-1)] = 0
}
