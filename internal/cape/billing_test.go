package cape

import (
	"reflect"
	"testing"

	"castle/internal/bitvec"
)

// TestBillingHalvesMatchInstructions holds each billing half to its
// instruction: an engine that executes SearchBatch, MultiKeySearch and
// Merge and a twin that only calls ChargeSearchBatch,
// ChargeMultiKeySearch and ChargeMerge end with equal Stats and memory
// traffic, in both layouts, with and without ABA width discovery, for key
// counts around the vmks buffer size. ScalarRepeat(n, k) must bill as k
// calls of Scalar(n).
func TestBillingHalvesMatchInstructions(t *testing.T) {
	const vl = 256
	data := make([]uint32, vl)
	for i := range data {
		data[i] = uint32(i*7) % 300
	}
	for _, layout := range []Layout{GPMode, CAMMode} {
		for _, width := range []int{0, 9} {
			for _, nkeys := range []int{0, 1, 15, 16, 17, 100} {
				cfg := DefaultConfig().WithEnhancements()
				cfg.MKSBufferBytes = 64 // 16 keys per fill
				run := func(halves bool) (Stats, int64) {
					e := newTestEngine(cfg, vl)
					e.SetLayout(layout)
					e.Put(0, data, width)
					e.Put(1, data, width)
					keys := seq(nkeys)
					if halves {
						e.ChargeSearchBatch(0, nkeys)
						e.ChargeMultiKeySearch(0, nkeys)
						e.ChargeMerge(3)
						e.ScalarRepeat(1, 7)
					} else {
						e.SearchBatch(0, keys)
						e.MultiKeySearch(0, keys)
						m := bitvec.New(vl)
						m.Set(5)
						for i := 0; i < 3; i++ {
							e.Merge(1, m, 42)
						}
						for i := 0; i < 7; i++ {
							e.Scalar(1)
						}
					}
					return e.Stats(), e.Mem().BytesRead()
				}
				hs, hr := run(true)
				is, ir := run(false)
				if !reflect.DeepEqual(hs, is) || hr != ir {
					t.Fatalf("layout %v width %d keys %d: halves billed\n%v (read %d)\ninstructions\n%v (read %d)",
						layout, width, nkeys, hs, hr, is, ir)
				}
			}
		}
	}
}
