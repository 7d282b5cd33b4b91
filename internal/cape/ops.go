package cape

import (
	"fmt"

	"castle/internal/bitvec"
	"castle/internal/isa"
)

// CmpOp selects a vector-scalar comparison predicate.
type CmpOp int

// Comparison predicates.
const (
	CmpEQ CmpOp = iota
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

func (c CmpOp) String() string {
	switch c {
	case CmpEQ:
		return "=="
	case CmpLT:
		return "<"
	case CmpLE:
		return "<="
	case CmpGT:
		return ">"
	case CmpGE:
		return ">="
	}
	return fmt.Sprintf("cmp(%d)", int(c))
}

// Load executes vle32.v: it streams vl 32-bit elements from main memory into
// register r through the VMU. width is the column's known operating bitwidth
// from database statistics (§5.1); pass 0 when unknown (ABA will embed a
// discovery phase in the first bit-serial instruction that touches r).
func (e *Engine) Load(r VReg, data []uint32, width int) {
	if len(data) < e.vl {
		panic(fmt.Sprintf("cape: Load of %d elements with VL %d", len(data), e.vl))
	}
	v := e.reg(r)
	v.data = append(v.data[:0], data[:e.vl]...)
	v.valid = true
	v.invalidateIndex()
	if width > 0 {
		v.width, v.known = snapWidth(width), true
	} else {
		v.width, v.known = 32, false
	}
	e.chargeCSB(isa.OpVLoad, 0)
	e.chargeMem(e.mm.StreamRead(int64(e.vl) * 4))
}

// Put places data into register r without charging a memory transfer. It
// models results produced in-situ (bulk-updated join outputs, copies between
// registers) and is also the hook tests use to set up register state.
func (e *Engine) Put(r VReg, data []uint32, width int) {
	if len(data) < e.vl {
		panic(fmt.Sprintf("cape: Put of %d elements with VL %d", len(data), e.vl))
	}
	v := e.reg(r)
	v.data = append(v.data[:0], data[:e.vl]...)
	v.valid = true
	v.invalidateIndex()
	if width > 0 {
		v.width, v.known = snapWidth(width), true
	} else {
		v.width, v.known = 32, false
	}
}

// Store executes vse32.v: it streams register r back to main memory.
func (e *Engine) Store(r VReg) []uint32 {
	v := e.validReg(r)
	out := make([]uint32, e.vl)
	copy(out, v.data[:e.vl])
	e.chargeCSB(isa.OpVStore, 0)
	e.chargeMem(e.mm.StreamWrite(int64(e.vl) * 4))
	return out
}

// Peek returns the register contents without charging anything (test and
// result-inspection hook; a real program would Store).
func (e *Engine) Peek(r VReg) []uint32 {
	v := e.validReg(r)
	out := make([]uint32, e.vl)
	copy(out, v.data[:e.vl])
	return out
}

// View returns register r's first VL lanes without copying or charging
// anything: the read side of an executor kernel that computes a whole
// instruction loop in one host pass and bills the loop's instruction
// stream separately. The slice aliases the register; callers must not
// write through it or hold it across a write to r.
func (e *Engine) View(r VReg) []uint32 {
	v := e.validReg(r)
	return v.data[:e.vl:e.vl]
}

// MergeView returns register r's first VL lanes for in-place writing: the
// functional side of a run of vmerge.vxm into r, charging nothing (bill
// each merge with ChargeMerge). Like Merge, it starts a new write epoch
// and leaves the width to be rediscovered lazily under ABA.
func (e *Engine) MergeView(r VReg) []uint32 {
	v := e.validReg(r)
	v.known = false
	v.invalidateIndex()
	return v.data[:e.vl:e.vl]
}

// Broadcast executes vmv.v.x: every element of r becomes val (a single bulk
// update).
func (e *Engine) Broadcast(r VReg, val uint32) {
	v := e.reg(r)
	if cap(v.data) < e.vl {
		v.data = make([]uint32, e.vl)
	}
	v.data = v.data[:e.vl]
	for i := range v.data {
		v.data[i] = val
	}
	v.valid = true
	v.invalidateIndex()
	w := 0
	for x := val; x != 0; x >>= 1 {
		w++
	}
	if w == 0 {
		w = 1
	}
	v.width, v.known = snapWidth(w), true
	e.chargeCSB(isa.OpVMvVX, isa.BroadcastSteps)
}

// Merge executes vmerge.vxm: elements of r selected by mask become val (a
// predicated bulk update). Castle's join uses this to materialize dimension
// attributes into fact-aligned vectors.
func (e *Engine) Merge(r VReg, mask *bitvec.Vector, val uint32) {
	v := e.validReg(r)
	e.checkMask(mask)
	for i := mask.First(); i != -1 && i < e.vl; i = mask.NextAfter(i) {
		v.data[i] = val
	}
	v.known = false // width may have grown; rediscover lazily under ABA
	v.invalidateIndex()
	e.ChargeMerge(1)
}

// ChargeMerge is the billing half of Merge: count vmerge.vxm instructions.
func (e *Engine) ChargeMerge(count int64) {
	e.chargeCSBN(isa.OpVMergeVX, isa.MergeSteps, count)
}

func (e *Engine) checkMask(m *bitvec.Vector) {
	if m.Len() != e.vl {
		panic(fmt.Sprintf("cape: mask length %d != VL %d", m.Len(), e.vl))
	}
}

// Search executes vmseq.vx — the associative search primitive. In GP mode
// the bitsliced layout requires bit-serial tag accumulation (n+1 cycles); in
// CAM mode the contiguous layout completes in 3 cycles (§5.2).
func (e *Engine) Search(r VReg, key uint32) *bitvec.Vector {
	v := e.validReg(r)
	var steps int64
	if e.layout == CAMMode {
		steps = isa.SearchStepsCAM
	} else {
		steps = isa.SearchSteps(e.width(v))
	}
	e.chargeCSB(isa.OpVMSeqVX, steps)
	m := bitvec.New(e.vl)
	if v.indexed(e.vl) {
		v.setMatches(m, key)
	} else {
		scanBelow(m, v.data[:e.vl], key, 1, false)
	}
	return m
}

// Charge bills count instances of an instruction without executing it
// functionally. It is the accounting twin of the functional methods, used
// by executor fast paths that compute a whole loop's results in bulk (e.g.
// Algorithm 2's group loop over tens of thousands of groups) but must still
// bill the exact per-group instruction sequence. Searches are layout-aware;
// bit-serial costs use the given operand width (pass 32 when unknown).
func (e *Engine) Charge(op isa.Op, width int, count int64) {
	if count <= 0 {
		return
	}
	var steps int64
	if op == isa.OpVMSeqVX && e.layout == CAMMode {
		steps = isa.SearchStepsCAM
	} else {
		steps = isa.Steps(op, width)
	}
	e.chargeCSBN(op, steps, count)
}

// RegWidth returns the effective ABA operand width of a register (32 when
// ABA is disabled), performing embedded discovery if the width is unknown.
func (e *Engine) RegWidth(r VReg) int {
	return e.width(e.validReg(r))
}

// SearchFirst executes a fused vmseq.vx + vfirst.m: it searches r for key
// and returns the index of the first matching element, or -1. Castle's
// left-deep join probes use this to test one probe key against a resident
// dimension partition without materializing the full mask.
func (e *Engine) SearchFirst(r VReg, key uint32) int {
	v := e.validReg(r)
	var steps int64
	if e.layout == CAMMode {
		steps = isa.SearchStepsCAM
	} else {
		steps = isa.SearchSteps(e.width(v))
	}
	e.chargeCSB(isa.OpVMSeqVX, steps)
	e.chargeCSB(isa.OpVMFirst, isa.MFirstSteps)
	if v.indexed(e.vl) {
		if run := v.matches(key); len(run) > 0 {
			return int(uint32(run[0]))
		}
		return -1
	}
	return firstEq(v.data[:e.vl], key)
}

// SearchBatch executes one vmseq.vx per key plus a vmor.mm per key to fold
// the matches into a single running mask — the instruction stream of
// Algorithm 1's probe loop without vmks. The returned mask is the union of
// the per-key matches.
func (e *Engine) SearchBatch(r VReg, keys []uint32) *bitvec.Vector {
	e.ChargeSearchBatch(r, len(keys))
	out := bitvec.New(e.vl)
	e.searchKeys(out, e.validReg(r), keys)
	return out
}

// ChargeSearchBatch is the billing half of SearchBatch: one vmseq.vx and
// one vmor.mm per key searched in r.
func (e *Engine) ChargeSearchBatch(r VReg, nkeys int) {
	v := e.validReg(r)
	var steps int64
	if e.layout == CAMMode {
		steps = isa.SearchStepsCAM
	} else {
		steps = isa.SearchSteps(e.width(v))
	}
	e.chargeCSBN(isa.OpVMSeqVX, steps, int64(nkeys))
	e.chargeCSBN(isa.OpVMOr, isa.MaskOpSteps, int64(nkeys))
}

// MultiKeySearch executes vmks (§5.3): it fetches up to the buffer capacity
// of keys from memory, searches them back-to-back in the CSB, ORs the
// per-key tag results in-situ, and deposits one combined mask.
//
// Cost per buffer fill: M (memory request latency) + numkeys (one
// distribution+search cycle per key) + 2 (move the combined tags out). The
// memory side moves whole cachelines, so sub-cacheline buffers waste
// bandwidth. Panics if MKS is disabled (the database system must not emit
// vmks on cores without it).
func (e *Engine) MultiKeySearch(r VReg, keys []uint32) *bitvec.Vector {
	e.ChargeMultiKeySearch(r, len(keys))
	out := bitvec.New(e.vl)
	e.searchKeys(out, e.validReg(r), keys)
	return out
}

// ChargeMultiKeySearch is the billing half of MultiKeySearch: one key
// fetch and one vmks per buffer fill of the nkeys searched in r. Panics if
// MKS is disabled.
func (e *Engine) ChargeMultiKeySearch(r VReg, nkeys int) {
	if !e.cfg.EnableMKS {
		panic("cape: vmks issued but MKS is disabled")
	}
	v := e.validReg(r)
	bufKeys := e.cfg.MKSBufferKeys()
	var w int
	if e.layout != CAMMode {
		// vmks performs searches the same way as ADL's CAM mode (§6.1);
		// in GP mode each buffered key still pays the bit-serial
		// accumulation, eroding the benefit.
		w = e.width(v)
	}
	for off := 0; off < nkeys; off += bufKeys {
		n := min(nkeys-off, bufKeys)
		// Key fetch: one request train of numkeys*4 bytes (line-rounded).
		e.chargeMem(e.mm.StreamRead(int64(n) * 4))
		if e.layout == CAMMode {
			e.chargeCSB(isa.OpVMKS, isa.VMKSSteps(n))
		} else {
			e.chargeCSB(isa.OpVMKS, int64(n)*isa.SearchSteps(w)+2)
		}
	}
}

// Compare executes a vector-scalar comparison (vmseq/vmslt/vmsle/vmsgt/
// vmsge .vx) and returns the match mask. Equality uses the search cost
// model; ordering comparisons are bit-serial magnitude scans (3n+6) in
// either layout (CAM mode only accelerates equality pattern matches).
func (e *Engine) Compare(op CmpOp, r VReg, key uint32) *bitvec.Vector {
	if op == CmpEQ {
		return e.Search(r, key)
	}
	v := e.validReg(r)
	n := e.width(v)
	var iop isa.Op
	switch op {
	case CmpLT:
		iop = isa.OpVMSltVX
	case CmpLE:
		iop = isa.OpVMSleVX
	case CmpGT:
		iop = isa.OpVMSgtVX
	case CmpGE:
		iop = isa.OpVMSgeVX
	default:
		panic(fmt.Sprintf("cape: unknown comparison %v", op))
	}
	e.chargeCSB(iop, isa.IneqVXSteps(n))
	bound, negate := uint64(key), false
	switch op {
	case CmpLE:
		bound++
	case CmpGT:
		bound, negate = bound+1, true
	case CmpGE:
		negate = true
	}
	m := bitvec.New(e.vl)
	scanBelow(m, v.data[:e.vl], 0, bound, negate)
	return m
}

// CompareVV executes vmseq.vv / vmslt.vv element-wise between two registers.
func (e *Engine) CompareVV(op CmpOp, a, b VReg) *bitvec.Vector {
	va, vb := e.validReg(a), e.validReg(b)
	n := maxInt(e.width(va), e.width(vb))
	m := bitvec.New(e.vl)
	switch op {
	case CmpEQ:
		e.chargeCSB(isa.OpVMSeqVV, isa.EqVVSteps(n))
		for i := 0; i < e.vl; i++ {
			if va.data[i] == vb.data[i] {
				m.Set(i)
			}
		}
	case CmpLT:
		e.chargeCSB(isa.OpVMSltVV, isa.IneqVVSteps(n))
		for i := 0; i < e.vl; i++ {
			if va.data[i] < vb.data[i] {
				m.Set(i)
			}
		}
	default:
		panic(fmt.Sprintf("cape: CompareVV supports == and <, got %v", op))
	}
	return m
}

func (e *Engine) requireGP(what string) {
	if e.layout != GPMode {
		panic(fmt.Sprintf("cape: %s requires GP mode (bitsliced operand locality); current layout is CAM", what))
	}
}

// AddVV executes vadd.vv: dst = a + b (bit-serial, 8n+2 cycles, GP mode
// only — CAM mode lacks operand locality for vv arithmetic, §5.2).
func (e *Engine) AddVV(dst, a, b VReg) {
	e.arithVV(isa.OpVAddVV, dst, a, b, func(x, y uint32) uint32 { return x + y })
}

// SubVV executes vsub.vv: dst = a - b.
func (e *Engine) SubVV(dst, a, b VReg) {
	e.arithVV(isa.OpVSubVV, dst, a, b, func(x, y uint32) uint32 { return x - y })
}

func (e *Engine) arithVV(op isa.Op, dst, a, b VReg, f func(x, y uint32) uint32) {
	e.requireGP(op.String())
	va, vb := e.validReg(a), e.validReg(b)
	n := maxInt(e.width(va), e.width(vb)) + 1 // one growth bit for carries
	if n > 32 {
		n = 32
	}
	e.chargeCSB(op, isa.AddSteps(n))
	e.abaExtend(n)
	vd := e.reg(dst)
	if cap(vd.data) < e.vl {
		vd.data = make([]uint32, e.vl)
	}
	vd.data = vd.data[:e.vl]
	for i := 0; i < e.vl; i++ {
		vd.data[i] = f(va.data[i], vb.data[i])
	}
	vd.valid, vd.known = true, false
	vd.invalidateIndex()
}

// MulVV executes vmul.vv: dst = a * b (bit-serial, 4n²+4n at uniform width;
// mixed ABA widths reduce the partial-product loop, §5.1).
func (e *Engine) MulVV(dst, a, b VReg) {
	e.requireGP("vmul.vv")
	va, vb := e.validReg(a), e.validReg(b)
	wa, wb := e.width(va), e.width(vb)
	e.chargeCSB(isa.OpVMulVV, isa.MulSteps(wa, wb))
	e.abaExtend(maxInt(wa, wb))
	vd := e.reg(dst)
	if cap(vd.data) < e.vl {
		vd.data = make([]uint32, e.vl)
	}
	vd.data = vd.data[:e.vl]
	for i := 0; i < e.vl; i++ {
		vd.data[i] = va.data[i] * vb.data[i]
	}
	vd.valid, vd.known = true, false
	vd.invalidateIndex()
}

// Logical vv operations (bit-parallel; available in both layouts because
// they operate plane-wise).

// AndVV executes vand.vv.
func (e *Engine) AndVV(dst, a, b VReg) {
	e.logicalVV(isa.OpVAndVV, dst, a, b, func(x, y uint32) uint32 { return x & y })
}

// OrVV executes vor.vv.
func (e *Engine) OrVV(dst, a, b VReg) {
	e.logicalVV(isa.OpVOrVV, dst, a, b, func(x, y uint32) uint32 { return x | y })
}

// XorVV executes vxor.vv.
func (e *Engine) XorVV(dst, a, b VReg) {
	e.logicalVV(isa.OpVXorVV, dst, a, b, func(x, y uint32) uint32 { return x ^ y })
}

func (e *Engine) logicalVV(op isa.Op, dst, a, b VReg, f func(x, y uint32) uint32) {
	va, vb := e.validReg(a), e.validReg(b)
	e.chargeCSB(op, isa.Steps(op, 32))
	vd := e.reg(dst)
	if cap(vd.data) < e.vl {
		vd.data = make([]uint32, e.vl)
	}
	vd.data = vd.data[:e.vl]
	for i := 0; i < e.vl; i++ {
		vd.data[i] = f(va.data[i], vb.data[i])
	}
	vd.valid, vd.known = true, false
	vd.invalidateIndex()
}

// Mask-register operations (vmand.mm / vmor.mm / vmxor.mm): single-cycle
// bit-parallel combinations of 1-bit operands.

// MaskAnd returns a AND b, charging one mask-op cycle.
func (e *Engine) MaskAnd(a, b *bitvec.Vector) *bitvec.Vector {
	e.checkMask(a)
	e.checkMask(b)
	e.chargeCSB(isa.OpVMAnd, isa.MaskOpSteps)
	return a.Clone().And(b)
}

// MaskOr returns a OR b.
func (e *Engine) MaskOr(a, b *bitvec.Vector) *bitvec.Vector {
	e.checkMask(a)
	e.checkMask(b)
	e.chargeCSB(isa.OpVMOr, isa.MaskOpSteps)
	return a.Clone().Or(b)
}

// MaskXor returns a XOR b (Algorithm 2 uses this to retire processed
// groups from the input mask).
func (e *Engine) MaskXor(a, b *bitvec.Vector) *bitvec.Vector {
	e.checkMask(a)
	e.checkMask(b)
	e.chargeCSB(isa.OpVMXor, isa.MaskOpSteps)
	return a.Clone().Xor(b)
}

// MaskNot returns the complement of a mask.
func (e *Engine) MaskNot(a *bitvec.Vector) *bitvec.Vector {
	e.checkMask(a)
	e.chargeCSB(isa.OpVMXor, isa.MaskOpSteps)
	return a.Clone().Not()
}

// MaskInit returns a mask with every lane set (set=true) or clear,
// replicated by a single bulk update (Algorithm 2's mask_init).
func (e *Engine) MaskInit(set bool) *bitvec.Vector {
	e.chargeCSB(isa.OpVMvVX, isa.BroadcastSteps)
	if set {
		return bitvec.NewSet(e.vl)
	}
	return bitvec.New(e.vl)
}

// MFirst executes vfirst.m: the index of the first set mask bit via the
// priority-encoder tree, or -1 if none.
func (e *Engine) MFirst(m *bitvec.Vector) int {
	e.checkMask(m)
	e.chargeCSB(isa.OpVMFirst, isa.MFirstSteps)
	return m.First()
}

// MPopc executes vcpop.m: the number of set mask bits.
func (e *Engine) MPopc(m *bitvec.Vector) int {
	e.checkMask(m)
	e.chargeCSB(isa.OpVMPopc, isa.PopcSteps)
	return m.Count()
}

// Extract reads a single element from a register (Algorithm 2's
// GCol[idx]).
func (e *Engine) Extract(r VReg, idx int) uint32 {
	v := e.validReg(r)
	if idx < 0 || idx >= e.vl {
		panic(fmt.Sprintf("cape: Extract index %d out of VL %d", idx, e.vl))
	}
	e.chargeCSB(isa.OpVExtract, isa.ExtractSteps)
	return v.data[idx]
}

// RedSum executes a predicated vredsum.vs: the sum of the elements of r
// selected by mask, via the hardware reduction tree (~n cycles). The result
// is widened to int64 (the reduction tree carries more than 32 bits).
// Unlike vv arithmetic, the reduction tree is dedicated logic outside the
// subarrays [15], so it operates on either data layout; this is what lets
// Castle fuse CAM-mode group discovery with per-group sums (Algorithm 2).
func (e *Engine) RedSum(r VReg, mask *bitvec.Vector) int64 {
	v := e.validReg(r)
	e.checkMask(mask)
	e.chargeCSB(isa.OpVRedSum, isa.RedSumSteps(e.width(v)))
	var sum int64
	for i := mask.First(); i != -1 && i < e.vl; i = mask.NextAfter(i) {
		sum += int64(v.data[i])
	}
	return sum
}

// RedMax executes a predicated vredmax.vs: the maximum of the elements of
// r selected by mask, via a bit-serial candidate-narrowing scan (n+2
// steps). ok is false when the mask selects nothing.
func (e *Engine) RedMax(r VReg, mask *bitvec.Vector) (uint32, bool) {
	return e.redExtreme(isa.OpVRedMax, r, mask, func(a, b uint32) bool { return a > b })
}

// RedMin executes a predicated vredmin.vs (n+2 steps).
func (e *Engine) RedMin(r VReg, mask *bitvec.Vector) (uint32, bool) {
	return e.redExtreme(isa.OpVRedMin, r, mask, func(a, b uint32) bool { return a < b })
}

func (e *Engine) redExtreme(op isa.Op, r VReg, mask *bitvec.Vector, better func(a, b uint32) bool) (uint32, bool) {
	v := e.validReg(r)
	e.checkMask(mask)
	e.chargeCSB(op, isa.RedMinMaxSteps(e.width(v)))
	var best uint32
	found := false
	for i := mask.First(); i != -1 && i < e.vl; i = mask.NextAfter(i) {
		if !found || better(v.data[i], best) {
			best = v.data[i]
			found = true
		}
	}
	return best, found
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
