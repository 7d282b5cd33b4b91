package bitvec

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewAllClear(t *testing.T) {
	v := New(130)
	if v.Len() != 130 {
		t.Fatalf("Len = %d, want 130", v.Len())
	}
	if v.Any() {
		t.Fatal("new vector should have no set bits")
	}
	if v.Count() != 0 {
		t.Fatalf("Count = %d, want 0", v.Count())
	}
	if v.First() != -1 {
		t.Fatalf("First = %d, want -1", v.First())
	}
}

func TestNewSet(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 1000} {
		v := NewSet(n)
		if v.Count() != n {
			t.Errorf("NewSet(%d).Count = %d", n, v.Count())
		}
	}
}

func TestSetGetClear(t *testing.T) {
	v := New(200)
	for _, i := range []int{0, 1, 63, 64, 127, 128, 199} {
		v.Set(i)
		if !v.Get(i) {
			t.Errorf("bit %d should be set", i)
		}
	}
	if v.Count() != 7 {
		t.Fatalf("Count = %d, want 7", v.Count())
	}
	v.Clear(64)
	if v.Get(64) {
		t.Error("bit 64 should be clear")
	}
	v.SetTo(64, true)
	if !v.Get(64) {
		t.Error("SetTo(64, true) failed")
	}
	v.SetTo(64, false)
	if v.Get(64) {
		t.Error("SetTo(64, false) failed")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range index")
		}
	}()
	New(10).Set(10)
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	New(10).And(New(11))
}

func TestFirstAndNextAfter(t *testing.T) {
	v := FromIndices(300, []int{5, 64, 65, 299})
	if got := v.First(); got != 5 {
		t.Fatalf("First = %d, want 5", got)
	}
	want := []int{5, 64, 65, 299}
	var got []int
	for i := v.First(); i != -1; i = v.NextAfter(i) {
		got = append(got, i)
	}
	if len(got) != len(want) {
		t.Fatalf("iterated %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("iterated %v, want %v", got, want)
		}
	}
	if v.NextAfter(299) != -1 {
		t.Error("NextAfter(last) should be -1")
	}
	if v.NextAfter(-1) != 5 {
		t.Error("NextAfter(-1) should return First")
	}
}

func TestLogicalOps(t *testing.T) {
	a := FromBools([]bool{true, true, false, false})
	b := FromBools([]bool{true, false, true, false})

	and := a.Clone().And(b)
	or := a.Clone().Or(b)
	xor := a.Clone().Xor(b)
	andNot := a.Clone().AndNot(b)
	not := a.Clone().Not()

	check := func(name string, v *Vector, want []bool) {
		t.Helper()
		for i, w := range want {
			if v.Get(i) != w {
				t.Errorf("%s bit %d = %v, want %v", name, i, v.Get(i), w)
			}
		}
	}
	check("and", and, []bool{true, false, false, false})
	check("or", or, []bool{true, true, true, false})
	check("xor", xor, []bool{false, true, true, false})
	check("andnot", andNot, []bool{false, true, false, false})
	check("not", not, []bool{false, false, true, true})
}

func TestNotTrimsTail(t *testing.T) {
	v := New(10)
	v.Not()
	if v.Count() != 10 {
		t.Fatalf("Not on 10-bit vector: Count = %d, want 10", v.Count())
	}
}

func TestIndicesRoundTrip(t *testing.T) {
	idx := []int{0, 17, 64, 100, 511}
	v := FromIndices(512, idx)
	got := v.Indices()
	if len(got) != len(idx) {
		t.Fatalf("Indices = %v, want %v", got, idx)
	}
	for i := range idx {
		if got[i] != idx[i] {
			t.Fatalf("Indices = %v, want %v", got, idx)
		}
	}
}

func TestEqualAndClone(t *testing.T) {
	v := FromIndices(100, []int{1, 50, 99})
	w := v.Clone()
	if !v.Equal(w) {
		t.Fatal("clone should be equal")
	}
	w.Clear(50)
	if v.Equal(w) {
		t.Fatal("modified clone should differ")
	}
	if v.Equal(New(99)) {
		t.Fatal("different lengths should not be equal")
	}
}

func TestCopyFrom(t *testing.T) {
	v := New(64)
	w := FromIndices(64, []int{3, 33})
	v.CopyFrom(w)
	if !v.Equal(w) {
		t.Fatal("CopyFrom mismatch")
	}
}

func TestString(t *testing.T) {
	v := FromBools([]bool{true, false, true})
	if got := v.String(); got != "101" {
		t.Fatalf("String = %q, want 101", got)
	}
	long := NewSet(200)
	if s := long.String(); len(s) == 0 {
		t.Fatal("long String should not be empty")
	}
}

// Property: Count equals the number of true entries used to build the vector.
func TestQuickCountMatchesBools(t *testing.T) {
	f := func(b []bool) bool {
		v := FromBools(b)
		n := 0
		for _, x := range b {
			if x {
				n++
			}
		}
		return v.Count() == n && v.Len() == len(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: De Morgan — NOT(a AND b) == NOT(a) OR NOT(b).
func TestQuickDeMorgan(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw%500) + 1
		rng := rand.New(rand.NewSource(seed))
		a, b := randomVec(rng, n), randomVec(rng, n)
		left := a.Clone().And(b).Not()
		right := a.Clone().Not().Or(b.Clone().Not())
		return left.Equal(right)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: XOR is its own inverse — (a XOR b) XOR b == a.
func TestQuickXorInvolution(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw%500) + 1
		rng := rand.New(rand.NewSource(seed))
		a, b := randomVec(rng, n), randomVec(rng, n)
		return a.Clone().Xor(b).Xor(b).Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: iterating NextAfter visits exactly Indices().
func TestQuickIterationMatchesIndices(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		rng := rand.New(rand.NewSource(seed))
		v := randomVec(rng, n)
		idx := v.Indices()
		j := 0
		for i := v.First(); i != -1; i = v.NextAfter(i) {
			if j >= len(idx) || idx[j] != i {
				return false
			}
			j++
		}
		return j == len(idx) && len(idx) == v.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func randomVec(rng *rand.Rand, n int) *Vector {
	v := New(n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 1 {
			v.Set(i)
		}
	}
	return v
}

func BenchmarkCount32K(b *testing.B) {
	v := NewSet(32768)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = v.Count()
	}
}

func BenchmarkAnd32K(b *testing.B) {
	v, w := NewSet(32768), NewSet(32768)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.And(w)
	}
}

func TestWordAccess(t *testing.T) {
	v := New(130) // three words, the last holding two bits
	v.SetWord(0, 1<<5|1<<63)
	v.SetWord(2, ^uint64(0)) // bits past Len must be dropped
	if got := v.Indices(); !reflect.DeepEqual(got, []int{5, 63, 128, 129}) {
		t.Fatalf("Indices after SetWord = %v", got)
	}
	if v.Count() != 4 || v.Word(2) != 3 || v.Word(1) != 0 {
		t.Fatalf("Count %d, words %x %x", v.Count(), v.Word(1), v.Word(2))
	}
	if !v.Equal(FromIndices(130, []int{5, 63, 128, 129})) {
		t.Fatal("SetWord result differs from the same bits set one by one")
	}
}
