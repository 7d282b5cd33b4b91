package cape

import (
	"math/rand"
	"reflect"
	"testing"

	"castle/internal/bitvec"
)

// searchScript drives one fuzz case: a register file of four registers is
// loaded from a value distribution chosen by mode, then ops (one byte per
// step) interleave every search primitive with every mutator, SetVL and
// layout switches. Two engines run the same instruction stream: a, the
// engine under test, whose registers build their permutation index as
// usual, and b, whose search epoch is reset before every search so it
// always scans. After each step both engines' masks must equal a naive
// loop over the expected register contents, and their Stats must be equal,
// so the host path a search takes can never change an answer or a charge.
type searchScript struct {
	t     *testing.T
	rng   *rand.Rand
	mode  byte
	a, b  *Engine
	model [4][]uint32 // expected contents of v0..v3, as long as last written
}

const scriptRegs = 4

func runSearchScript(t *testing.T, seed int64, mode byte, vl0 int, ops []byte) {
	cfg := DefaultConfig().WithEnhancements()
	cfg.MAXVL = 1024
	cfg.MKSBufferBytes = 64 // 16 keys per vmks buffer fill
	s := &searchScript{t: t, rng: rand.New(rand.NewSource(seed)), mode: mode,
		a: New(cfg), b: New(cfg)}
	s.setVL(vl0)
	for r := 0; r < scriptRegs; r++ {
		s.write(VReg(r), s.values(vl0))
	}
	for step, op := range ops {
		s.step(op)
		if !reflect.DeepEqual(s.a.Stats(), s.b.Stats()) {
			t.Fatalf("step %d (op %d): Stats diverge between the indexed and scanning engines:\n%+v\n%+v",
				step, op%16, s.a.Stats(), s.b.Stats())
		}
	}
}

// value draws one element from the script's distribution.
func (s *searchScript) value() uint32 {
	switch s.mode % 6 {
	case 0: // duplicate-heavy
		return uint32(s.rng.Intn(4))
	case 1: // narrow span
		return uint32(s.rng.Intn(64))
	case 2: // narrow span above 2^31, up to the largest key
		return ^uint32(0) - uint32(s.rng.Intn(64))
	case 3: // full 32-bit range: key spans force the wide-span fallback
		return s.rng.Uint32()
	case 4: // two clusters 2^31 apart
		return uint32(s.rng.Intn(16)) | uint32(s.rng.Intn(2))<<31
	default: // SSB-like date keys
		return 19920101 + uint32(s.rng.Intn(2500))
	}
}

func (s *searchScript) values(n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = s.value()
	}
	return out
}

// key usually picks a lane of r (a hit), else a fresh draw (often a miss).
func (s *searchScript) key(r VReg) uint32 {
	vl := s.a.VL()
	if vl > 0 && s.rng.Intn(4) != 0 {
		return s.model[r][s.rng.Intn(vl)]
	}
	return s.value()
}

func (s *searchScript) keys(r VReg, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = s.key(r)
	}
	return out
}

func (s *searchScript) setVL(vl int) {
	s.a.SetVL(vl)
	s.b.SetVL(vl)
}

// write loads data into r on both engines (Load or Put at random).
func (s *searchScript) write(r VReg, data []uint32) {
	if s.rng.Intn(2) == 0 {
		s.a.Load(r, data, 0)
		s.b.Load(r, data, 0)
	} else {
		w := 0
		if s.rng.Intn(2) == 0 {
			w = 32
		}
		s.a.Put(r, data, w)
		s.b.Put(r, data, w)
	}
	s.model[r] = append([]uint32(nil), data[:s.a.VL()]...)
}

// scanOnly resets b's search epoch on r so b's next search scans.
func (s *searchScript) scanOnly(r VReg) { s.b.regs[r].invalidateIndex() }

func (s *searchScript) reg() VReg { return VReg(s.rng.Intn(scriptRegs)) }

// want is the naive answer: lanes of r's first VL elements in keys.
func (s *searchScript) want(r VReg, keys ...uint32) *bitvec.Vector {
	m := bitvec.New(s.a.VL())
	for i, x := range s.model[r][:s.a.VL()] {
		for _, k := range keys {
			if x == k {
				m.Set(i)
			}
		}
	}
	return m
}

func (s *searchScript) check(what string, got, want *bitvec.Vector) {
	s.t.Helper()
	if !got.Equal(want) {
		s.t.Fatalf("%s at VL %d: got %v, want %v", what, s.a.VL(), got, want)
	}
}

func (s *searchScript) search(r VReg, key uint32) {
	s.t.Helper()
	s.scanOnly(r)
	want := s.want(r, key)
	s.check("Search", s.a.Search(r, key), want)
	s.check("Search (scan)", s.b.Search(r, key), want)
}

func (s *searchScript) searchFirst(r VReg, key uint32) {
	s.t.Helper()
	s.scanOnly(r)
	want := s.want(r, key).First()
	if got := s.a.SearchFirst(r, key); got != want {
		s.t.Fatalf("SearchFirst(%d) = %d, want %d", key, got, want)
	}
	if got := s.b.SearchFirst(r, key); got != want {
		s.t.Fatalf("SearchFirst(%d) (scan) = %d, want %d", key, got, want)
	}
}

func (s *searchScript) step(op byte) {
	s.t.Helper()
	r := s.reg()
	gp := s.a.Layout() == GPMode
	switch op % 16 {
	case 0:
		s.search(r, s.key(r))
	case 1:
		k := s.key(r)
		s.scanOnly(r)
		want := s.want(r, k)
		s.check("Compare(CmpEQ)", s.a.Compare(CmpEQ, r, k), want)
		s.check("Compare(CmpEQ) (scan)", s.b.Compare(CmpEQ, r, k), want)
		// The ordering comparisons share the word-parallel scan.
		op := CmpOp(1 + s.rng.Intn(4))
		want = bitvec.New(s.a.VL())
		for i, x := range s.model[r][:s.a.VL()] {
			want.SetTo(i, [...]bool{CmpLT: x < k, CmpLE: x <= k, CmpGT: x > k, CmpGE: x >= k}[op])
		}
		s.check("Compare("+op.String()+")", s.a.Compare(op, r, k), want)
		s.check("Compare("+op.String()+") (scan)", s.b.Compare(op, r, k), want)
	case 2:
		s.searchFirst(r, s.key(r))
	case 3, 4:
		// Few keys reach the permutation once r is indexed; many keys
		// always take the key-set pass.
		n := 1 + s.rng.Intn(3)
		if op%16 == 4 {
			n = 1 + s.rng.Intn(80)
		}
		keys := s.keys(r, n)
		s.scanOnly(r)
		want := s.want(r, keys...)
		s.check("SearchBatch", s.a.SearchBatch(r, keys), want)
		s.check("SearchBatch (scan)", s.b.SearchBatch(r, keys), want)
		s.scanOnly(r)
		s.check("MultiKeySearch", s.a.MultiKeySearch(r, keys), want) // CAM or GP per layout
		s.check("MultiKeySearch (scan)", s.b.MultiKeySearch(r, keys), want)
	case 5:
		s.repeat(r)
	case 6:
		s.write(r, s.values(s.a.VL()))
	case 7:
		v := s.value()
		s.a.Broadcast(r, v)
		s.b.Broadcast(r, v)
		s.model[r] = make([]uint32, s.a.VL())
		for i := range s.model[r] {
			s.model[r][i] = v
		}
	case 8:
		m := bitvec.New(s.a.VL())
		for i := 0; i < m.Len(); i++ {
			if s.rng.Intn(3) == 0 {
				m.Set(i)
			}
		}
		v := s.value()
		s.a.Merge(r, m, v)
		s.b.Merge(r, m, v)
		for i := m.First(); i != -1; i = m.NextAfter(i) {
			s.model[r][i] = v
		}
	case 9, 10:
		if !gp {
			return // vv arithmetic needs GP mode
		}
		a, b := s.reg(), s.reg()
		f := [3]func(x, y uint32) uint32{
			func(x, y uint32) uint32 { return x + y },
			func(x, y uint32) uint32 { return x - y },
			func(x, y uint32) uint32 { return x * y },
		}
		k := s.rng.Intn(3)
		for _, e := range []*Engine{s.a, s.b} {
			[3]func(dst, a, b VReg){e.AddVV, e.SubVV, e.MulVV}[k](r, a, b)
		}
		s.model[r] = binary(s.model[a], s.model[b], s.a.VL(), f[k])
	case 11:
		a, b := s.reg(), s.reg()
		f := [3]func(x, y uint32) uint32{
			func(x, y uint32) uint32 { return x & y },
			func(x, y uint32) uint32 { return x | y },
			func(x, y uint32) uint32 { return x ^ y },
		}
		k := s.rng.Intn(3)
		for _, e := range []*Engine{s.a, s.b} {
			[3]func(dst, a, b VReg){e.AndVV, e.OrVV, e.XorVV}[k](r, a, b)
		}
		s.model[r] = binary(s.model[a], s.model[b], s.a.VL(), f[k])
	case 12, 13:
		// SetVL without a write, to any length every register still
		// covers; op 13 indexes r first and searches it at the new VL.
		if op%16 == 13 {
			s.repeat(r)
		}
		short := len(s.model[0])
		for _, m := range s.model[1:] {
			short = min(short, len(m))
		}
		s.setVL(s.rng.Intn(short + 1))
		if op%16 == 13 {
			s.search(r, s.key(r))
			s.searchFirst(r, s.key(r))
		}
	case 14:
		// Grow VL back and rewrite every register at the new length.
		s.setVL(1 + s.rng.Intn(700))
		for r := 0; r < scriptRegs; r++ {
			s.write(VReg(r), s.values(s.a.VL()))
		}
	default:
		// Layout switch: every register is invalidated and reloaded.
		l := CAMMode
		if !gp {
			l = GPMode
		}
		s.a.SetLayout(l)
		s.b.SetLayout(l)
		for r := 0; r < scriptRegs; r++ {
			s.write(VReg(r), s.values(s.a.VL()))
		}
	}
}

// repeat runs one search often enough in one epoch to build r's index:
// the first (scanned) and every later (index-backed) answer must agree.
func (s *searchScript) repeat(r VReg) {
	s.t.Helper()
	k := s.key(r)
	for i := 0; i <= indexAfterSearches+1; i++ {
		s.search(r, k)
	}
	if !s.a.regs[r].sorted {
		s.t.Fatalf("v%d not indexed after %d searches in one epoch", r, indexAfterSearches+2)
	}
	s.searchFirst(r, k)
}

func binary(a, b []uint32, vl int, f func(x, y uint32) uint32) []uint32 {
	out := make([]uint32, vl)
	for i := range out {
		out[i] = f(a[i], b[i])
	}
	return out
}

// FuzzSearchAgreesWithScan checks Search, Compare (CmpEQ and the
// orderings), SearchFirst, SearchBatch and MultiKeySearch (CAM and GP)
// against a naive loop and against an engine that never indexes, over
// duplicate-heavy, wide-span and above-2^31 registers, VLs off the 64-lane
// word grid, SetVL without a write, and every register mutator between
// searches.
func FuzzSearchAgreesWithScan(f *testing.F) {
	all := make([]byte, 64)
	for i := range all {
		all[i] = byte(i)
	}
	repeat := []byte{5, 5, 3, 5, 2, 5, 0, 0, 0, 0, 0, 0, 2, 2, 2, 3, 3, 3, 4}
	for mode := byte(0); mode < 6; mode++ {
		f.Add(int64(mode), mode, uint16(700), all)
		f.Add(int64(mode)+100, mode, uint16(129), repeat)
		f.Add(int64(mode)+200, mode, uint16(64), []byte{5, 12, 5, 13, 5, 6, 5, 8, 5})
	}
	f.Fuzz(func(t *testing.T, seed int64, mode byte, vl uint16, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		runSearchScript(t, seed, mode, int(vl%1025), ops)
	})
}

// TestQuickSearchScripts runs random scripts beyond the fuzz seed corpus
// on every plain `go test`.
func TestQuickSearchScripts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 60; i++ {
		ops := make([]byte, 48)
		rng.Read(ops)
		runSearchScript(t, rng.Int63(), byte(i), rng.Intn(1025), ops)
	}
}

func TestSortPermStableOrder(t *testing.T) {
	for _, data := range [][]uint32{
		{3, 1, 3, 0, 1, 3},
		{^uint32(0), 0, ^uint32(0), 1 << 31, 0},
		{7, 7, 7, 7},
		{},
	} {
		v := &vreg{data: data}
		v.sortPerm(len(data))
		for i := 1; i < len(v.perm); i++ {
			if v.perm[i-1] >= v.perm[i] {
				t.Fatalf("%v: permutation not strictly ascending: %x", data, v.perm)
			}
		}
		for i, p := range v.perm {
			if data[uint32(p)] != uint32(p>>32) {
				t.Fatalf("%v: entry %d (%x) does not name its lane's value", data, i, p)
			}
		}
	}
}

var allocSink *bitvec.Vector

// TestSearchAllocs pins the host allocations of the search primitives at
// VL 32768: Search and SearchBatch allocate their result mask and nothing
// else, on the first (scanned) search of an epoch and on an index-backed
// one once the register's buffers exist; SearchFirst allocates nothing.
func TestSearchAllocs(t *testing.T) {
	const vl = 32768
	data := make([]uint32, vl)
	for i := range data {
		data[i] = uint32(i % 1000)
	}
	keys := []uint32{7, 999, 5000}
	mask := testing.AllocsPerRun(20, func() { allocSink = bitvec.New(vl) })
	if mask == 0 {
		t.Fatal("result mask allocation not measured")
	}

	for _, layout := range []Layout{GPMode, CAMMode} {
		e := newTestEngine(DefaultConfig().WithEnhancements(), vl)
		e.SetLayout(layout)
		e.Put(0, data, 0)
		// Warm the permutation and key-set buffers and the stats maps.
		for i := 0; i <= indexAfterSearches; i++ {
			allocSink = e.Search(0, 7)
			allocSink = e.SearchBatch(0, keys)
			allocSink = e.MultiKeySearch(0, keys)
			e.SearchFirst(0, 7)
		}

		check := func(what string, want float64, f func()) {
			t.Helper()
			if got := testing.AllocsPerRun(20, f); got != want {
				t.Errorf("%v %s: %v allocs per run, want %v", layout, what, got, want)
			}
		}
		newEpoch := func() { e.Put(0, data, 0) }
		check("first Search", mask, func() { newEpoch(); allocSink = e.Search(0, 7) })
		check("first SearchBatch", mask, func() { newEpoch(); allocSink = e.SearchBatch(0, keys) })
		check("first MultiKeySearch", mask, func() { newEpoch(); allocSink = e.MultiKeySearch(0, keys) })
		check("first SearchFirst", 0, func() { newEpoch(); e.SearchFirst(0, 7) })
		check("index rebuild", float64(indexAfterSearches+1)*mask, func() {
			newEpoch()
			for i := 0; i <= indexAfterSearches; i++ {
				allocSink = e.Search(0, 7)
			}
		})
		if !e.regs[0].sorted {
			t.Fatal("register not indexed after the rebuild run")
		}
		check("indexed Search", mask, func() { allocSink = e.Search(0, 7) })
		check("indexed SearchBatch", mask, func() { allocSink = e.SearchBatch(0, keys) })
		check("indexed MultiKeySearch", mask, func() { allocSink = e.MultiKeySearch(0, keys) })
		check("indexed SearchFirst", 0, func() { e.SearchFirst(0, 7) })
	}
}
