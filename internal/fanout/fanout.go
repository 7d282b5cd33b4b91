// Package fanout runs a fixed set of work items on their own goroutines and
// waits for them, handing a panic in any item back to the caller.
//
// A panic that no deferred recover on its own goroutine catches kills the
// process, whatever the goroutine that started it does. Execution fans out
// to CAPE tiles, CPU cores, pipeline lanes and cluster nodes, so a recover
// on the goroutine that serves a request sees a kernel's panic only if the
// fan-out carries it back: Run re-raises it on the calling goroutine once
// every item has stopped.
package fanout

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// Panic is a panic recovered on a fanned-out goroutine and re-raised on
// the caller's: the original value and the stack of the goroutine that
// panicked.
type Panic struct {
	Value any
	Stack []byte
}

func (p *Panic) Error() string { return fmt.Sprint(p.Value) }

// Run calls fn(i) for every i in [0, n), each on its own goroutine, and
// returns when all have returned. If any item panicked, Run then panics on
// the calling goroutine with the lowest-index item's *Panic; a *Panic that
// a nested Run raised passes through as it is.
func Run(n int, fn func(i int)) {
	panics := make([]*Panic, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					p, ok := r.(*Panic)
					if !ok {
						p = &Panic{Value: r, Stack: debug.Stack()}
					}
					panics[i] = p
				}
			}()
			fn(i)
		}()
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}
