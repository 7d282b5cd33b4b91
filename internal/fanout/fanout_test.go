package fanout

import (
	"strings"
	"sync/atomic"
	"testing"
)

func TestRunCallsEveryItem(t *testing.T) {
	var seen [8]atomic.Bool
	Run(len(seen), func(i int) { seen[i].Store(true) })
	for i := range seen {
		if !seen[i].Load() {
			t.Fatalf("item %d never ran", i)
		}
	}
}

// TestRunCarriesPanicToCaller pins the hand-back: every item finishes,
// and the caller recovers the lowest-index panic with the stack of the
// goroutine that raised it.
func TestRunCarriesPanicToCaller(t *testing.T) {
	var finished atomic.Int64
	defer func() {
		p, ok := recover().(*Panic)
		if !ok {
			t.Fatal("Run did not re-raise a *Panic on the caller")
		}
		if p.Value != "item 1" || p.Error() != "item 1" {
			t.Fatalf("re-raised %v, want the lowest-index item's value", p.Value)
		}
		if !strings.Contains(string(p.Stack), "fanout.TestRunCarriesPanicToCaller") {
			t.Fatalf("stack does not show the panicking item:\n%s", p.Stack)
		}
		if finished.Load() != 2 {
			t.Fatalf("%d non-panicking items finished, want 2", finished.Load())
		}
	}()
	Run(4, func(i int) {
		if i%2 == 1 {
			panic("item " + string(rune('0'+i)))
		}
		finished.Add(1)
	})
	t.Fatal("Run returned normally after an item panicked")
}

// TestNestedRunKeepsInnermostStack checks a *Panic re-raised by an inner
// Run is not wrapped again by the outer one.
func TestNestedRunKeepsInnermostStack(t *testing.T) {
	defer func() {
		p, ok := recover().(*Panic)
		if !ok || p.Value != "inner" {
			t.Fatalf("recovered %#v, want the inner *Panic", p)
		}
	}()
	Run(2, func(i int) {
		Run(2, func(j int) {
			if i == 1 && j == 1 {
				panic("inner")
			}
		})
	})
}
