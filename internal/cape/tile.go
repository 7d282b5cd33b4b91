package cape

import (
	"fmt"

	"castle/internal/mem"
)

// ForkScalarsPerTile is the control-processor cost, in scalar instructions,
// of dispatching one tile at fork time: broadcasting the morsel descriptor
// (base/limit/layout) and the register-file configuration to the tile's CP.
const ForkScalarsPerTile = 32

// TileGroup is a set of engines forked from one parent for a morsel-parallel
// fact sweep (§7.2 places CAPE tiles "alongside other cores"; the server
// already schedules N tiles — the group is how one query occupies K of them).
//
// Cycle semantics follow the two views the paper needs:
//
//   - Simulated elapsed time: the tiles run concurrently, so the sweep takes
//     max(tile cycles). Merge folds exactly the critical tile's Stats into
//     the parent, making parent TotalCycles = prep + max(tiles) + merge.
//   - Work (energy, §6.3 byte accounting): every cycle and byte on every
//     tile counts. WorkStats sums over tiles, and Merge absorbs *all* tiles'
//     memory traffic into the parent so BytesMoved stays a work metric.
//
// Tiles carry independent Stats and no CycleHook or Tracer; callers that
// want telemetry attach a hook per tile (hooks then observe work cycles,
// not elapsed).
type TileGroup struct {
	parent *Engine
	tiles  []*Engine
	merged bool
}

// Fork clones the engine into k tile engines that share its configuration
// (including ADL/ABA enablement) and current data layout, each with a fresh
// register file, Stats, and memory-traffic accounting. The parent is charged
// ForkScalarsPerTile scalar instructions per tile for morsel dispatch.
//
// Fork does not copy register contents: a tile begins a morsel by loading
// its own partitions, exactly as the serial loop reloads per partition.
func (e *Engine) Fork(k int) *TileGroup {
	if k < 1 {
		panic(fmt.Sprintf("cape: Fork(%d): need at least one tile", k))
	}
	tiles := make([]*Engine, k)
	for i := range tiles {
		tiles[i] = &Engine{
			cfg:    e.cfg,
			mm:     mem.NewSystem(e.cfg.Mem),
			vl:     e.cfg.MAXVL,
			layout: e.layout,
			regs:   make([]vreg, e.cfg.NumVRegs),
		}
	}
	e.Scalar(ForkScalarsPerTile * int64(k))
	return &TileGroup{parent: e, tiles: tiles}
}

// Tiles returns the tile engines in fixed tile order.
func (g *TileGroup) Tiles() []*Engine { return g.tiles }

// Tile returns tile i.
func (g *TileGroup) Tile(i int) *Engine { return g.tiles[i] }

// Len returns the number of tiles.
func (g *TileGroup) Len() int { return len(g.tiles) }

// TileCycles returns each tile's accumulated cycles, in tile order.
func (g *TileGroup) TileCycles() []int64 {
	out := make([]int64, len(g.tiles))
	for i, t := range g.tiles {
		out[i] = t.TotalCycles()
	}
	return out
}

// CriticalTile returns the index of the slowest tile — the one whose cycles
// bound the sweep's simulated elapsed time. Ties resolve to the lowest index
// so the merge is deterministic.
func (g *TileGroup) CriticalTile() int {
	crit, max := 0, int64(-1)
	for i, t := range g.tiles {
		if c := t.TotalCycles(); c > max {
			crit, max = i, c
		}
	}
	return crit
}

// WorkStats sums Stats over every tile: the energy/byte-accounting view in
// which all tile cycles count regardless of overlap.
func (g *TileGroup) WorkStats() Stats {
	var sum Stats
	for _, t := range g.tiles {
		sum.Add(t.Stats())
	}
	return sum
}

// WorkCycles returns the summed cycles across tiles.
func (g *TileGroup) WorkCycles() int64 {
	var sum int64
	for _, t := range g.tiles {
		sum += t.TotalCycles()
	}
	return sum
}

// Merge folds the group back into the parent and returns the per-tile cycle
// vector. The parent absorbs the critical tile's Stats — so its TotalCycles
// advances by max(tile cycles), the elapsed-time view — and every tile's
// memory traffic, the work view. The absorption deliberately bypasses the
// parent's CycleHook: hooks attached to the tiles already streamed those
// charges as they happened, and elapsed absorption must not double-count
// them.
//
// Merge is idempotent-hostile by design: calling it twice panics, because a
// second absorption would corrupt the elapsed model.
func (g *TileGroup) Merge() []int64 {
	if g.merged {
		panic("cape: TileGroup.Merge called twice")
	}
	g.merged = true
	cycles := g.TileCycles()
	crit := g.tiles[g.CriticalTile()]
	g.parent.st.Add(crit.st)
	g.parent.byOp.Add(&crit.byOp)
	for _, t := range g.tiles {
		g.parent.mm.Absorb(t.mm)
	}
	return cycles
}
