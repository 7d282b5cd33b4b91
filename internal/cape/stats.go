package cape

import (
	"fmt"
	"strings"

	"castle/internal/isa"
)

// Stats accumulates the engine's cycle and instruction accounting.
type Stats struct {
	// CSBCycles is the total cycles the compute-storage block was busy.
	CSBCycles int64
	// CSBCyclesByClass breaks CSBCycles down by Figure 7 instruction class.
	CSBCyclesByClass [isa.NumClasses]int64
	// CPCycles is control-processor occupancy (issue + scalar work).
	CPCycles int64
	// MemCycles is VMU transfer time (loads, stores, vmks key fetches).
	MemCycles int64

	// VectorInstrs counts vector instructions issued.
	VectorInstrs int64
	// ScalarInstrs counts scalar CP instructions charged.
	ScalarInstrs int64
	// InstrsByOp counts vector instructions per opcode.
	InstrsByOp map[isa.Op]int64
}

// TotalCycles returns the end-to-end cycle count under the serialized
// instruction-level model (a vector instruction commits only after the CSB
// completes it; VMU transfers do not overlap CSB compute).
func (s Stats) TotalCycles() int64 { return s.CSBCycles + s.CPCycles + s.MemCycles }

// Seconds converts TotalCycles to wall time at the given clock.
func (s Stats) Seconds(clockHz float64) float64 {
	return float64(s.TotalCycles()) / clockHz
}

// ClassShare returns each class's fraction of CSB cycles (Figure 7).
func (s Stats) ClassShare() [isa.NumClasses]float64 {
	var out [isa.NumClasses]float64
	if s.CSBCycles == 0 {
		return out
	}
	for c := range out {
		out[c] = float64(s.CSBCyclesByClass[c]) / float64(s.CSBCycles)
	}
	return out
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.CSBCycles += o.CSBCycles
	for c := range s.CSBCyclesByClass {
		s.CSBCyclesByClass[c] += o.CSBCyclesByClass[c]
	}
	s.CPCycles += o.CPCycles
	s.MemCycles += o.MemCycles
	s.VectorInstrs += o.VectorInstrs
	s.ScalarInstrs += o.ScalarInstrs
	if o.InstrsByOp != nil {
		if s.InstrsByOp == nil {
			s.InstrsByOp = make(map[isa.Op]int64)
		}
		for op, n := range o.InstrsByOp {
			s.InstrsByOp[op] += n
		}
	}
}

// String renders a human-readable summary.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "total=%d cycles (CSB=%d CP=%d mem=%d), %d vector / %d scalar instrs",
		s.TotalCycles(), s.CSBCycles, s.CPCycles, s.MemCycles, s.VectorInstrs, s.ScalarInstrs)
	if s.CSBCycles > 0 {
		share := s.ClassShare()
		b.WriteString("\nCSB breakdown:")
		for c := isa.Class(0); c < isa.NumClasses; c++ {
			fmt.Fprintf(&b, " %s=%.1f%%", c, 100*share[c])
		}
	}
	return b.String()
}

// TotalCycles returns the engine's current end-to-end cycle count without
// copying the full Stats (the executors snapshot this around operator
// regions, so it must stay allocation-free).
func (e *Engine) TotalCycles() int64 { return e.st.TotalCycles() }

// Stats returns a copy of the engine's accumulated statistics. InstrsByOp
// lists only the opcodes issued at least once.
func (e *Engine) Stats() Stats {
	out := e.st
	out.InstrsByOp = make(map[isa.Op]int64)
	for op, n := range e.byOp {
		if n != 0 {
			out.InstrsByOp[isa.Op(op)] = n
		}
	}
	return out
}

// ResetStats clears cycle and instruction counters (register contents and
// memory-traffic counters are preserved; reset those via Mem().Reset()).
func (e *Engine) ResetStats() {
	e.st = Stats{}
	e.byOp = isa.OpCounts{}
}
