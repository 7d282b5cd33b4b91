package cape

// search.go is the functional side of the associative search instructions
// (vmseq.vx, vmseq.vx+vfirst.m, SearchBatch, vmks) and of the ordering
// comparisons: how the simulator finds the matching lanes on the host. None of it charges cycles; the
// instruction methods in ops.go bill the architectural cost before asking
// for the answer, so the host path taken never shows in Stats.

import (
	"math/bits"
	"slices"

	"castle/internal/bitvec"
)

// indexAfterSearches is how many searches of one register a write epoch
// answers by scanning before it builds the sorted permutation. A register
// searched a third time between writes is almost always in a loop —
// Algorithm 2's group loop, left-deep SearchFirst probes, group-aware join
// probing — that goes on to search it tens to thousands of times, each
// then a binary search plus its matches instead of a VL-long pass. Filters,
// which search a freshly loaded column once or twice, never pay for a
// sort. On a 2-vCPU Xeon VM one sort of 32768 lanes costs about as much as
// four scans, yet 2 measured fastest over the 13 SSB queries forced onto
// CAPE at SF 0.05: level with 1 and 4 within noise, and ahead of 0 (sort
// on the first search), 8 and 16.
const indexAfterSearches = 2

// indexed counts one search of the first vl elements and reports whether
// it should read the sorted permutation, building it when this search
// crosses indexAfterSearches.
func (v *vreg) indexed(vl int) bool {
	if v.sorted && v.permVL == vl {
		return true
	}
	v.searches++
	if v.searches <= indexAfterSearches {
		return false
	}
	v.sortPerm(vl)
	return true
}

// radixBits caps the digit width of sortPerm's passes: 2^11 counters fit
// in L1 next to the streams being scattered, and two passes cover any
// span up to 2^22 (every SSB key and attribute column).
const radixBits = 11

// sortPerm builds perm over data[:vl]: entries value<<32 | position,
// LSD radix-sorted on value-min. The passes split the span's bit length
// evenly into digits of at most radixBits, so a column of seven years
// sorts in one pass over eight buckets. The first pass counts and
// scatters straight from data, building each entry as it goes. Every pass
// is stable and the first reads lanes in order, so equal values keep
// ascending positions and the first entry of a value's run is its lowest
// lane.
func (v *vreg) sortPerm(vl int) {
	if cap(v.perm) < vl {
		v.perm = make([]uint64, vl)
		v.permTmp = make([]uint64, vl)
	}
	src, dst := v.perm[:vl], v.permTmp[:vl]
	data := v.data[:vl]
	lo, hi := ^uint32(0), uint32(0)
	for _, x := range data {
		lo, hi = min(lo, x), max(hi, x)
	}
	w := 0
	if hi > lo {
		w = bits.Len32(hi - lo)
	}
	passes := max(1, (w+radixBits-1)/radixBits)
	digit := uint((w + passes - 1) / passes)
	mask := uint32(1)<<digit - 1
	var count [1 << radixBits]int32
	c := count[:mask+1]
	for p := 0; p < passes; p++ {
		shift := uint(p) * digit
		clear(c)
		if p == 0 {
			for _, x := range data {
				c[(x-lo)&mask]++
			}
		} else {
			for _, e := range src {
				c[(uint32(e>>32)-lo)>>shift&mask]++
			}
		}
		var sum int32
		for d, n := range c {
			c[d] = sum
			sum += n
		}
		if p == 0 {
			for i, x := range data {
				d := (x - lo) & mask
				dst[c[d]] = uint64(x)<<32 | uint64(i)
				c[d]++
			}
		} else {
			for _, e := range src {
				d := (uint32(e>>32) - lo) >> shift & mask
				dst[c[d]] = e
				c[d]++
			}
		}
		src, dst = dst, src
	}
	v.perm, v.permTmp = src, dst
	v.sorted, v.permVL = true, vl
}

// matches returns the permutation entries holding key, in ascending
// position order. The permutation must be current (indexed returned true).
func (v *vreg) matches(key uint32) []uint64 {
	p := v.perm[:v.permVL]
	i := lowerBound(p, uint64(key)<<32)
	j := i
	for j < len(p) && uint32(p[j]>>32) == key {
		j++
	}
	return p[i:j]
}

// lowerBound returns the first index of the ascending p holding a value
// >= x (len(p) if none).
func lowerBound(p []uint64, x uint64) int {
	i, j := 0, len(p)
	for i < j {
		h := int(uint(i+j) >> 1)
		if p[h] < x {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// setMatches sets the lanes of key in m from the permutation. A value's
// run is in ascending lane order, so bits gather into one mask word until
// the run leaves it.
func (v *vreg) setMatches(m *bitvec.Vector, key uint32) {
	run := v.matches(key)
	for len(run) > 0 {
		wi := int(uint32(run[0]) >> 6)
		w := m.Word(wi)
		for len(run) > 0 && int(uint32(run[0])>>6) == wi {
			w |= 1 << (uint32(run[0]) & 63)
			run = run[1:]
		}
		m.SetWord(wi, w)
	}
}

// scanBelow fills the all-clear mask m (of len(data) lanes) with the
// lanes where x^mix < bound, or x^mix >= bound when negate, 64 lanes into
// one mask word at a time without branches: the sign bit of the 64-bit
// difference is the lane's answer. Equality with key is x^key < 1; the
// orderings are x < key or x < key+1 (no overflow in 64 bits), negated
// for > and >=.
func scanBelow(m *bitvec.Vector, data []uint32, mix uint32, bound uint64, negate bool) {
	var flip uint64
	if negate {
		flip = 1
	}
	full := len(data) / 64
	for wi := 0; wi < full; wi++ {
		lanes := (*[64]uint32)(data[wi*64:])
		var w uint64
		for j := 0; j < 64; j += 4 {
			w |= (uint64(lanes[j]^mix)-bound)>>63<<j |
				(uint64(lanes[j+1]^mix)-bound)>>63<<(j+1) |
				(uint64(lanes[j+2]^mix)-bound)>>63<<(j+2) |
				(uint64(lanes[j+3]^mix)-bound)>>63<<(j+3)
		}
		m.SetWord(wi, w^-flip)
	}
	var w uint64
	for j, x := range data[full*64:] {
		w |= ((uint64(x^mix)-bound)>>63 ^ flip) << j
	}
	if w != 0 {
		m.SetWord(full, w)
	}
}

// firstEq returns the first lane of data equal to key, or -1.
func firstEq(data []uint32, key uint32) int {
	for i, x := range data {
		if x == key {
			return i
		}
	}
	return -1
}

// keySet is the reusable scratch of a multi-key search: a bitmap over the
// keys' [lo, lo+span] range when clearing it costs no more than the scan
// it serves, else the keys sorted and deduplicated for binary search.
type keySet struct {
	lo, span uint32
	wide     bool
	bits     []uint64
	sorted   []uint32
}

// reset loads keys (non-empty) into the set; vl is the length of the scan
// the set will serve and bounds the bitmap size.
func (s *keySet) reset(keys []uint32, vl int) {
	lo, hi := keys[0], keys[0]
	for _, k := range keys[1:] {
		lo, hi = min(lo, k), max(hi, k)
	}
	s.lo, s.span = lo, hi-lo
	nw := int(uint64(s.span)>>6) + 1
	s.wide = nw > vl+len(keys)
	if s.wide {
		s.sorted = append(s.sorted[:0], keys...)
		slices.Sort(s.sorted)
		s.sorted = slices.Compact(s.sorted)
		return
	}
	if cap(s.bits) < nw {
		s.bits = make([]uint64, nw)
	}
	s.bits = s.bits[:nw]
	clear(s.bits)
	for _, k := range keys {
		d := k - lo
		s.bits[d>>6] |= 1 << (d & 63)
	}
}

// scan fills the all-clear mask m (of len(data) lanes) with the lanes of
// data whose value is in the set: one pass, one mask word per 64 lanes.
func (s *keySet) scan(m *bitvec.Vector, data []uint32) {
	if s.wide {
		for i, x := range data {
			if x-s.lo <= s.span {
				if _, ok := slices.BinarySearch(s.sorted, x); ok {
					m.Set(i)
				}
			}
		}
		return
	}
	lo, span, set := s.lo, uint64(s.span), s.bits
	full := len(data) / 64
	for wi := 0; wi < full; wi++ {
		lanes := (*[64]uint32)(data[wi*64:])
		var w uint64
		for j := 0; j < 64; j++ {
			w |= inSet(lanes[j], lo, span, set) << j
		}
		m.SetWord(wi, w)
	}
	var w uint64
	for j, x := range data[full*64:] {
		w |= inSet(x, lo, span, set) << j
	}
	if w != 0 {
		m.SetWord(full, w)
	}
}

// inSet is 1 when x is in the bitmap set over [lo, lo+span], else 0.
// Lanes outside the span read bit 0 of the bitmap and mask it off, so the
// scan never branches on a key's range — SSB foreign keys fall in and out
// of a probe group's span at random.
func inSet(x, lo uint32, span uint64, set []uint64) uint64 {
	d := uint64(x - lo)
	in := (span-d)>>63 ^ 1 // d <= span
	d &= -in
	return set[d>>6] >> (d & 63) & in
}

// searchKeys fills the all-clear mask m with the lanes of v's first vl
// elements that equal any of keys: per-key permutation lookups when the
// register is indexed and there is at most one key per 128 lanes (each
// lookup is a binary search plus its matches, against one pass for the
// whole set), else one key-set pass. Only the index-eligible case counts
// as a search toward the permutation build; a big key set scans whatever
// the epoch's history.
func (e *Engine) searchKeys(m *bitvec.Vector, v *vreg, keys []uint32) {
	if len(keys) == 0 {
		return
	}
	vl := e.vl
	if len(keys) <= vl>>7 && v.indexed(vl) {
		for _, k := range keys {
			v.setMatches(m, k)
		}
		return
	}
	e.keys.reset(keys, vl)
	e.keys.scan(m, v.data[:vl])
}
