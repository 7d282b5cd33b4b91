// Package isa defines the RISC-V-vector-style instruction vocabulary that
// Castle issues to the CAPE core, together with the associative cost model
// published in the paper (Table 1) that the CAPE VCU uses to sequence
// search/update microoperations.
//
// Castle does not assemble real RISC-V binaries; it drives the CAPE
// simulator with typed instruction records. Each opcode carries:
//
//   - a functional meaning (implemented in internal/cape), and
//   - a cycle cost in CSB steps, parameterised by the operating bitwidth n
//     (Table 1) and by the active data layout (GP vs CAM mode, §5.2).
//
// The Class taxonomy mirrors Figure 7's breakdown categories: search,
// vv logical, vv comparison, vv arithmetic, and others.
package isa

import "fmt"

// Op identifies a vector (or CAPE configuration) instruction.
type Op int

// The instruction vocabulary. Names follow the RISC-V vector extension where
// an equivalent exists (vadd.vv, vmseq.vx, ...); vsetdl, vrelayout and vmks
// are the paper's proposed extensions (§5.2, §5.3).
const (
	// Arithmetic (bit-serial).
	OpVAddVV  Op = iota // vadd.vv: element-wise addition
	OpVSubVV            // vsub.vv: element-wise subtraction
	OpVMulVV            // vmul.vv: element-wise multiplication
	OpVRedSum           // vredsum.vs: predicated reduction sum
	OpVRedMax           // vredmax.vs: predicated reduction maximum
	OpVRedMin           // vredmin.vs: predicated reduction minimum

	// Logic (bit-parallel).
	OpVAndVV // vand.vv
	OpVOrVV  // vor.vv
	OpVXorVV // vxor.vv
	OpVNotV  // vnot.v (vxor with all-ones)

	// Mask-register logical ops (operate on 1-bit mask operands).
	OpVMAnd // vmand.mm
	OpVMOr  // vmor.mm
	OpVMXor // vmxor.mm

	// Comparison.
	OpVMSeqVX // vmseq.vx: SEARCH — compare all elements against a scalar key
	OpVMSeqVV // vmseq.vv: element-wise vector-vector equality
	OpVMSltVV // vmslt.vv: element-wise vector-vector less-than (inequality)
	OpVMSltVX // vmslt.vx: vector-scalar less-than
	OpVMSleVX // vmsle.vx: vector-scalar less-or-equal
	OpVMSgtVX // vmsgt.vx: vector-scalar greater-than
	OpVMSgeVX // vmsge.vx: vector-scalar greater-or-equal

	// Data movement and element access.
	OpVLoad    // vle32.v: load a vector from main memory via the VMU
	OpVStore   // vse32.v: store a vector to main memory via the VMU
	OpVMvVX    // vmv.v.x: broadcast a scalar into a vector (bulk update)
	OpVMergeVX // vmerge.vxm: predicated broadcast (update masked elements)
	OpVExtract // single-element read from the CSB (e.g. GCol[idx])

	// Mask queries.
	OpVMFirst // vfirst.m: index of first set mask bit (priority encoder)
	OpVMPopc  // vcpop.m: population count of a mask

	// Configuration.
	OpVSetVL    // vsetvl: set the active vector length
	OpVSetDL    // vsetdl: switch data layout GP<->CAM (§5.2)
	OpVRelayout // vrelayout: carry a mask across a layout switch (§5.2)

	// Proposed join acceleration.
	OpVMKS // vmks: multi-key search (§5.3)

	numOps
)

var opNames = [...]string{
	OpVAddVV: "vadd.vv", OpVSubVV: "vsub.vv", OpVMulVV: "vmul.vv",
	OpVRedSum: "vredsum.vs", OpVRedMax: "vredmax.vs", OpVRedMin: "vredmin.vs",
	OpVAndVV: "vand.vv", OpVOrVV: "vor.vv", OpVXorVV: "vxor.vv", OpVNotV: "vnot.v",
	OpVMAnd: "vmand.mm", OpVMOr: "vmor.mm", OpVMXor: "vmxor.mm",
	OpVMSeqVX: "vmseq.vx", OpVMSeqVV: "vmseq.vv", OpVMSltVV: "vmslt.vv",
	OpVMSltVX: "vmslt.vx", OpVMSleVX: "vmsle.vx", OpVMSgtVX: "vmsgt.vx", OpVMSgeVX: "vmsge.vx",
	OpVLoad: "vle32.v", OpVStore: "vse32.v", OpVMvVX: "vmv.v.x", OpVMergeVX: "vmerge.vxm",
	OpVExtract: "vextract", OpVMFirst: "vfirst.m", OpVMPopc: "vcpop.m",
	OpVSetVL: "vsetvl", OpVSetDL: "vsetdl", OpVRelayout: "vrelayout",
	OpVMKS: "vmks",
}

// String returns the assembly-style mnemonic.
func (o Op) String() string {
	if o < 0 || int(o) >= len(opNames) || opNames[o] == "" {
		return fmt.Sprintf("op(%d)", int(o))
	}
	return opNames[o]
}

// NumOps returns the number of defined opcodes.
func NumOps() int { return int(numOps) }

// OpCounts counts instructions per opcode, indexed by Op: a fixed array,
// so counting one instruction is an indexed add rather than a map write.
type OpCounts [numOps]int64

// Add accumulates o into c.
func (c *OpCounts) Add(o *OpCounts) {
	for op, n := range o {
		c[op] += n
	}
}

// Class groups opcodes into Figure 7's breakdown categories.
type Class int

// Figure 7 instruction classes.
const (
	ClassSearch     Class = iota // vector-scalar searches (vmseq.vx, vmks, vs compares)
	ClassLogical                 // vv logical (vand/vor/vxor and mask ops)
	ClassComparison              // vv comparison (vmseq.vv, vmslt.vv)
	ClassArithmetic              // vv arithmetic (add, sub, mul, reductions)
	ClassOther                   // loads, stores, broadcasts, config, mask queries
	NumClasses
)

var classNames = [...]string{
	ClassSearch:     "search",
	ClassLogical:    "vv logical",
	ClassComparison: "vv comparison",
	ClassArithmetic: "vv arithmetic",
	ClassOther:      "others",
}

// String returns the Figure 7 label for the class.
func (c Class) String() string {
	if c < 0 || int(c) >= len(classNames) {
		return fmt.Sprintf("class(%d)", int(c))
	}
	return classNames[c]
}

// Class returns the breakdown category of the opcode.
func (o Op) Class() Class {
	switch o {
	case OpVMSeqVX, OpVMSltVX, OpVMSleVX, OpVMSgtVX, OpVMSgeVX, OpVMKS:
		return ClassSearch
	case OpVAndVV, OpVOrVV, OpVXorVV, OpVNotV, OpVMAnd, OpVMOr, OpVMXor:
		return ClassLogical
	case OpVMSeqVV, OpVMSltVV:
		return ClassComparison
	case OpVAddVV, OpVSubVV, OpVMulVV, OpVRedSum, OpVRedMax, OpVRedMin:
		return ClassArithmetic
	default:
		return ClassOther
	}
}

// Mode identifies which compute mode an operation runs in (Table 1).
type Mode int

// Compute modes.
const (
	BitSerial Mode = iota
	BitParallel
)

func (m Mode) String() string {
	if m == BitSerial {
		return "bit-serial"
	}
	return "bit-parallel"
}

// ComputeMode returns whether the opcode's associative algorithm is
// bit-serial or bit-parallel (Table 1).
func (o Op) ComputeMode() Mode {
	switch o {
	case OpVAndVV, OpVOrVV, OpVXorVV, OpVNotV, OpVMAnd, OpVMOr, OpVMXor,
		OpVMvVX, OpVMergeVX:
		return BitParallel
	default:
		return BitSerial
	}
}

// Table 1 cost model. All counts are CSB steps (cycles) for an operand
// bitwidth of n, executing in the default bitsliced (GP-mode) layout.

// AddSteps returns the cost of vv add/sub: 8n+2.
func AddSteps(n int) int64 { return 8*int64(n) + 2 }

// MulSteps returns the cost of vv multiplication for operand bitwidths a and
// b. For uniform width n (a == b == n) this is Table 1's 4n^2+4n. With mixed
// widths under ABA (§5.1) the serial partial-product loop runs over the
// narrower operand while each addition pass spans the wider one:
// 4*a*b + 4*max(a,b).
func MulSteps(a, b int) int64 {
	mx := a
	if b > mx {
		mx = b
	}
	return 4*int64(a)*int64(b) + 4*int64(mx)
}

// RedSumSteps returns the cost of a predicated reduction sum: ~n (hardware
// reduction tree, one pass per bit position).
func RedSumSteps(n int) int64 { return int64(n) }

// RedMinMaxSteps returns the cost of a predicated reduction min/max: a
// bit-serial candidate-narrowing scan from the most significant bit — one
// search per bit plus two steps to extract the survivor (n+2).
func RedMinMaxSteps(n int) int64 { return int64(n) + 2 }

// Logical op costs (bit-parallel, independent of n).
const (
	AndSteps = 3 // vv logical and
	OrSteps  = 3 // vv logical or
	XorSteps = 4 // vv logical xor
)

// SearchSteps returns the cost of a vector-scalar equality search in the
// bitsliced GP layout: n+1 (bit-serial tag accumulation across subarrays).
func SearchSteps(n int) int64 { return int64(n) + 1 }

// SearchStepsCAM is the cost of a search in CAM mode (§5.2): one cycle to
// search the contiguous value subarray, one to copy the tags to the chain
// register, one to transfer into the mask subarray.
const SearchStepsCAM = 3

// EqVVSteps returns the cost of vv equality: n+4.
func EqVVSteps(n int) int64 { return int64(n) + 4 }

// IneqVVSteps returns the cost of vv inequality (less-than etc.): 3n+6.
func IneqVVSteps(n int) int64 { return 3*int64(n) + 6 }

// IneqVXSteps returns the cost of a vector-scalar inequality. A vs ordering
// comparison is performed as a bit-serial magnitude scan like its vv
// counterpart but with one operand held in the key register; we model it at
// the same 3n+6 step count.
func IneqVXSteps(n int) int64 { return 3*int64(n) + 6 }

// Fixed costs for the remaining operations.
const (
	MFirstSteps    = 2 // priority-encoder tree lookup
	PopcSteps      = 2 // population-count tree
	BroadcastSteps = 2 // bulk update of all elements with one value
	MergeSteps     = 2 // predicated bulk update
	ExtractSteps   = 4 // single-element read from a subarray
	SetVLSteps     = 1 // CSR write
	SetDLSteps     = 1 // layout-mode CSR write (§5.2)
	RelayoutSteps  = 2 // mask relayout across modes (§5.2)
	MaskOpSteps    = 1 // vmand/vmor/vmxor on 1-bit mask operands
)

// VMKSSteps returns the CSB-side cost of a multi-key search once its keys
// are resident in the VMU buffer: numkeys distribution+search cycles plus
// two cycles to move the combined mask to the destination vector (§5.3).
// The leading memory latency M is charged by the VMU.
func VMKSSteps(numkeys int) int64 { return int64(numkeys) + 2 }

// Steps returns the GP-mode CSB step count for op at bitwidth n. Mixed-width
// and key-count-dependent opcodes (vmul with ABA, vmks) have dedicated
// helpers; Steps uses uniform width for them.
func Steps(o Op, n int) int64 {
	switch o {
	case OpVAddVV, OpVSubVV:
		return AddSteps(n)
	case OpVMulVV:
		return MulSteps(n, n)
	case OpVRedSum:
		return RedSumSteps(n)
	case OpVRedMax, OpVRedMin:
		return RedMinMaxSteps(n)
	case OpVAndVV, OpVOrVV:
		return AndSteps
	case OpVXorVV, OpVNotV:
		return XorSteps
	case OpVMAnd, OpVMOr, OpVMXor:
		return MaskOpSteps
	case OpVMSeqVX:
		return SearchSteps(n)
	case OpVMSeqVV:
		return EqVVSteps(n)
	case OpVMSltVV:
		return IneqVVSteps(n)
	case OpVMSltVX, OpVMSleVX, OpVMSgtVX, OpVMSgeVX:
		return IneqVXSteps(n)
	case OpVMFirst:
		return MFirstSteps
	case OpVMPopc:
		return PopcSteps
	case OpVMvVX:
		return BroadcastSteps
	case OpVMergeVX:
		return MergeSteps
	case OpVExtract:
		return ExtractSteps
	case OpVSetVL:
		return SetVLSteps
	case OpVSetDL:
		return SetDLSteps
	case OpVRelayout:
		return RelayoutSteps
	case OpVMKS:
		return VMKSSteps(1)
	case OpVLoad, OpVStore:
		return 0 // memory-bound; the VMU charges the transfer
	default:
		panic(fmt.Sprintf("isa: no cost model for %v", o))
	}
}
