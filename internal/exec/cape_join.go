package exec

// cape_join.go holds the CAPE JoinProbe kernels: the right-deep direction
// (filtered dimension keys probe the resident fact partition, Algorithm 1
// with the probe side swapped) and the left-deep direction (surviving fact
// rows probe CSB-resident dimension partitions).

import (
	"castle/internal/bitvec"
	"castle/internal/cape"
	"castle/internal/isa"
	"castle/internal/storage"
)

// mksThreshold returns the minimum batch size worth a vmks.
func (s *tileSweep) mksThreshold() int {
	if s.opts.MKSMinKeys > 0 {
		return s.opts.MKSMinKeys
	}
	// One cacheline of keys: smaller fetches waste bandwidth (§6.2).
	return s.eng.Config().Mem.LineBytes / 4
}

// probeFactWithDim probes the resident fact FK column with every qualifying
// key of a filtered dimension, returning the semi-join mask and
// materializing needed attributes via bulk updates.
func (s *tileSweep) probeFactWithDim(fkReg cape.VReg, d dimSide, regs *regAlloc, attrRegs map[string]cape.VReg) *bitvec.Vector {
	eng := s.eng

	// Attribute target vectors, zero-initialised per partition.
	targets := make([]cape.VReg, len(d.edge.NeedAttrs))
	for i, a := range d.edge.NeedAttrs {
		key := d.edge.Dim + "." + a
		r, ok := attrRegs[key]
		if !ok {
			r = regs.fresh()
			attrRegs[key] = r
		}
		eng.Broadcast(r, 0)
		targets[i] = r
	}

	switch {
	case len(d.edge.NeedAttrs) == 0:
		return s.searchProbeKeys(fkReg, d.keys)
	case len(d.groups) == 0:
		return eng.MaskInit(false)
	case s.opts.NoBulkAggFastPath:
		return s.probeGroupsLiteral(fkReg, d, targets)
	}
	return s.probeGroups(fkReg, d, targets)
}

// probeWithMKS reports whether a batch of n probe keys issues one vmks
// rather than n vmseq.vx.
func (s *tileSweep) probeWithMKS(n int) bool {
	return s.eng.Config().EnableMKS && n >= s.mksThreshold()
}

// searchProbeKeys searches the FK register for a batch of probe keys.
func (s *tileSweep) searchProbeKeys(fkReg cape.VReg, keys []uint32) *bitvec.Vector {
	eng := s.eng
	if s.probeWithMKS(len(keys)) {
		eng.Scalar(4)
		return eng.MultiKeySearch(fkReg, keys)
	}
	eng.Scalar(int64(3 * len(keys))) // key load + loop control per vmseq.vx
	return eng.SearchBatch(fkReg, keys)
}

// chargeProbeKeys bills searchProbeKeys for a batch of n keys without
// searching.
func (s *tileSweep) chargeProbeKeys(fkReg cape.VReg, n int) {
	eng := s.eng
	if s.probeWithMKS(n) {
		eng.Scalar(4)
		eng.ChargeMultiKeySearch(fkReg, n)
		return
	}
	eng.Scalar(int64(3 * n))
	eng.ChargeSearchBatch(fkReg, n)
}

// probeGroupsLiteral is group-aware probing as the AP executes it: all
// keys sharing an attribute tuple probe as one batch, then a single
// predicated bulk update per attribute materializes the tuple into the
// fact-aligned vectors, and vmor folds the batch into the join mask. It is
// the test oracle of probeGroups (CastleOptions.NoBulkAggFastPath).
func (s *tileSweep) probeGroupsLiteral(fkReg cape.VReg, d dimSide, targets []cape.VReg) *bitvec.Vector {
	eng := s.eng
	var join *bitvec.Vector
	for _, g := range d.groups {
		m := s.searchProbeKeys(fkReg, g.keys)
		for i, r := range targets {
			eng.Merge(r, m, g.attrVals[i])
		}
		if join == nil {
			join = m
		} else {
			join = eng.MaskOr(join, m)
		}
	}
	return join
}

// probeGroups computes probeGroupsLiteral's join mask and attribute
// vectors in one pass over the FK register, looking each lane's key up in
// the dimension's key -> group table, and bills the loop's instruction
// stream group by group: the scalars and the key searches, one vmerge per
// attribute, and the vmor that folds the group into the join mask.
func (s *tileSweep) probeGroups(fkReg cape.VReg, d dimSide, targets []cape.VReg) *bitvec.Vector {
	eng := s.eng
	for gi, g := range d.groups {
		s.chargeProbeKeys(fkReg, len(g.keys))
		eng.ChargeMerge(int64(len(targets)))
		if gi > 0 {
			eng.Charge(isa.OpVMOr, 32, 1)
		}
	}

	t := &d.groupOf
	slots := t.slots(eng.View(fkReg), s.slots)
	s.slots = slots
	join := bitvec.New(len(slots))
	for base := 0; base < len(slots); base += 64 {
		var w uint64
		for j, sl := range slots[base:min(base+64, len(slots))] {
			w |= (uint64(sl) + 1<<32 - 1) >> 32 << j // 1 iff sl > 0
		}
		join.SetWord(base/64, w)
	}
	// Every lane takes its slot's value — zero when unmatched, as
	// Broadcast left it — so neither loop branches on the data.
	for a, r := range targets {
		out, col := eng.MergeView(r), t.cols[a]
		for i, sl := range slots {
			out[i] = col[sl]
		}
	}
	return join
}

// probeDimWithRows implements the left-deep direction: each surviving fact
// row's foreign key probes CSB-resident partitions of the filtered
// dimension; rows without a match are cleared from the row mask, and needed
// attributes are fetched via vfirst+extract.
func (s *tileSweep) probeDimWithRows(fact *storage.Table, d dimSide, base, factVL int,
	rowMask *bitvec.Vector, regs *regAlloc, attrRegs map[string]cape.VReg) *bitvec.Vector {

	eng := s.eng
	maxvl := eng.Config().MAXVL
	fkData := fact.MustColumn(d.edge.FactFK).Data

	// Compact the surviving rows to a CP-side values array (Figure 4).
	survivors := rowMask.Indices()
	eng.Scalar(int64(2 * len(survivors))) // compaction bookkeeping
	eng.ChargeStreamWrite(int64(4 * len(survivors)))

	keyReg := regs.fresh()
	attrSrc := make([]cape.VReg, len(d.edge.NeedAttrs))
	for i := range d.edge.NeedAttrs {
		attrSrc[i] = regs.fresh()
	}
	targets := make([]cape.VReg, len(d.edge.NeedAttrs))
	for i, a := range d.edge.NeedAttrs {
		key := d.edge.Dim + "." + a
		r, ok := attrRegs[key]
		if !ok {
			r = regs.fresh()
			attrRegs[key] = r
			eng.SetVL(factVL)
			eng.Broadcast(r, 0)
		}
		targets[i] = r
	}

	matched := bitvec.New(factVL)
	// rowAttr holds survivor si's fetched attributes at [si*na, (si+1)*na);
	// a later dimension chunk's match overwrites an earlier one's.
	na := len(attrSrc)
	rowAttr := make([]uint32, len(survivors)*na)

	for off := 0; off < len(d.keys) || off == 0; off += maxvl {
		dvl := len(d.keys) - off
		if dvl > maxvl {
			dvl = maxvl
		}
		if dvl <= 0 {
			break
		}
		eng.SetVL(dvl)
		eng.Load(keyReg, d.keys[off:off+dvl], 0)
		for i := range attrSrc {
			eng.Load(attrSrc[i], d.attrs[i][off:off+dvl], 0)
		}
		for si, row := range survivors {
			fk := fkData[base+row]
			eng.Scalar(3)
			idx := eng.SearchFirst(keyReg, fk)
			if idx == -1 {
				continue
			}
			matched.Set(row)
			for i, r := range attrSrc {
				rowAttr[si*na+i] = eng.Extract(r, idx)
			}
		}
	}

	eng.SetVL(factVL)
	newMask := rowMask.Clone().And(matched)
	eng.Scalar(2)

	// Materialize fetched attributes into the fact-aligned vectors with
	// single-row bulk updates, in ascending row order. One scratch mask
	// serves every row: its bit is set around the row's merges and cleared
	// after them.
	if na == 0 {
		return newMask
	}
	single := bitvec.New(factVL)
	for si, row := range survivors {
		if !matched.Get(row) {
			continue
		}
		single.Set(row)
		for i, r := range targets {
			eng.Merge(r, single, rowAttr[si*na+i])
		}
		single.Clear(row)
	}
	return newMask
}
