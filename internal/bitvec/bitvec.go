// Package bitvec provides dense bit vectors used throughout the Castle
// system to represent selection masks, join result masks, and the tag bits
// of CAPE's associative subarrays.
//
// A Vector holds n bits packed into 64-bit words. The zero value is an empty
// vector; use New to allocate one of a given length. All logical operations
// require operands of equal length and panic otherwise, because masks of
// mismatched length indicate a planning bug, not a runtime condition.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Vector is a fixed-length dense bit vector.
type Vector struct {
	n     int
	words []uint64
}

// New returns a Vector of n bits, all clear.
func New(n int) *Vector {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return &Vector{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// NewSet returns a Vector of n bits, all set.
func NewSet(n int) *Vector {
	v := New(n)
	v.SetAll()
	return v
}

// FromBools builds a Vector from a boolean slice.
func FromBools(b []bool) *Vector {
	v := New(len(b))
	for i, x := range b {
		if x {
			v.Set(i)
		}
	}
	return v
}

// FromIndices builds a Vector of n bits with the given indices set.
func FromIndices(n int, idx []int) *Vector {
	v := New(n)
	for _, i := range idx {
		v.Set(i)
	}
	return v
}

// Len returns the number of bits.
func (v *Vector) Len() int { return v.n }

// Get reports whether bit i is set.
func (v *Vector) Get(i int) bool {
	v.check(i)
	return v.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Set sets bit i.
func (v *Vector) Set(i int) {
	v.check(i)
	v.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Clear clears bit i.
func (v *Vector) Clear(i int) {
	v.check(i)
	v.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// SetTo sets bit i to b.
func (v *Vector) SetTo(i int, b bool) {
	if b {
		v.Set(i)
	} else {
		v.Clear(i)
	}
}

// Word returns word wi (bit i of the vector is bit i%64 of word i/64).
func (v *Vector) Word(wi int) uint64 { return v.words[wi] }

// SetWord overwrites word wi with w, dropping any bits of the last word
// that lie past Len so Count and Equal stay exact. It lets word-parallel
// producers (CAPE's search scans) fill a mask 64 lanes at a time.
func (v *Vector) SetWord(wi int, w uint64) {
	v.words[wi] = w
	if wi == len(v.words)-1 {
		v.trim()
	}
}

func (v *Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

// SetAll sets every bit.
func (v *Vector) SetAll() {
	for i := range v.words {
		v.words[i] = ^uint64(0)
	}
	v.trim()
}

// ClearAll clears every bit.
func (v *Vector) ClearAll() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// trim zeroes the unused tail bits of the last word so Count and Equal work.
func (v *Vector) trim() {
	if rem := v.n % wordBits; rem != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= (1 << uint(rem)) - 1
	}
}

// Count returns the number of set bits (population count).
func (v *Vector) Count() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether any bit is set.
func (v *Vector) Any() bool {
	for _, w := range v.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// None reports whether no bit is set.
func (v *Vector) None() bool { return !v.Any() }

// First returns the index of the lowest set bit, or -1 if none is set.
// This models CAPE's priority-encoder tree (the vfirst/vmfirst instruction).
func (v *Vector) First() int {
	for wi, w := range v.words {
		if w != 0 {
			return wi*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// NextAfter returns the index of the lowest set bit strictly greater than i,
// or -1 if none. Pass i = -1 to start from the beginning.
func (v *Vector) NextAfter(i int) int {
	i++
	if i >= v.n {
		return -1
	}
	wi := i / wordBits
	w := v.words[wi] >> uint(i%wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(v.words); wi++ {
		if v.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(v.words[wi])
		}
	}
	return -1
}

// Clone returns a deep copy.
func (v *Vector) Clone() *Vector {
	w := New(v.n)
	copy(w.words, v.words)
	return w
}

// CopyFrom overwrites v with the contents of o (equal lengths required).
func (v *Vector) CopyFrom(o *Vector) {
	v.sameLen(o)
	copy(v.words, o.words)
}

func (v *Vector) sameLen(o *Vector) {
	if v.n != o.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.n, o.n))
	}
}

// And stores v &= o.
func (v *Vector) And(o *Vector) *Vector {
	v.sameLen(o)
	for i := range v.words {
		v.words[i] &= o.words[i]
	}
	return v
}

// Or stores v |= o.
func (v *Vector) Or(o *Vector) *Vector {
	v.sameLen(o)
	for i := range v.words {
		v.words[i] |= o.words[i]
	}
	return v
}

// Xor stores v ^= o.
func (v *Vector) Xor(o *Vector) *Vector {
	v.sameLen(o)
	for i := range v.words {
		v.words[i] ^= o.words[i]
	}
	return v
}

// AndNot stores v &^= o.
func (v *Vector) AndNot(o *Vector) *Vector {
	v.sameLen(o)
	for i := range v.words {
		v.words[i] &^= o.words[i]
	}
	return v
}

// Not inverts every bit in place.
func (v *Vector) Not() *Vector {
	for i := range v.words {
		v.words[i] = ^v.words[i]
	}
	v.trim()
	return v
}

// Equal reports whether v and o have the same length and bits.
func (v *Vector) Equal(o *Vector) bool {
	if v.n != o.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// Indices returns the indices of all set bits in ascending order.
func (v *Vector) Indices() []int {
	out := make([]int, 0, v.Count())
	for i := v.First(); i != -1; i = v.NextAfter(i) {
		out = append(out, i)
	}
	return out
}

// String renders the vector as a compact 0/1 string (LSB first), capped for
// readability on long vectors.
func (v *Vector) String() string {
	const cap = 128
	var b strings.Builder
	n := v.n
	trunc := false
	if n > cap {
		n, trunc = cap, true
	}
	for i := 0; i < n; i++ {
		if v.Get(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	if trunc {
		fmt.Fprintf(&b, "... (%d bits, %d set)", v.n, v.Count())
	}
	return b.String()
}
