package exec

import (
	"context"
	"sync/atomic"
)

// faultHook, when set, runs at the start of every fact-stage work unit —
// a CAPE partition, a CPU core's row range, a placed pipeline lane, a
// shared sweep — on the goroutine that executes it, with the query's
// context. It lets tests make a kernel panic where the kernel runs; it is
// nil otherwise.
var faultHook atomic.Pointer[func(context.Context)]

// SetFaultHook installs fn as the fault hook (nil removes it) and returns
// a function that restores the previous one. It exists for tests.
func SetFaultHook(fn func(ctx context.Context)) (restore func()) {
	var p *func(context.Context)
	if fn != nil {
		p = &fn
	}
	old := faultHook.Swap(p)
	return func() { faultHook.Store(old) }
}

// faultPoint calls the fault hook, if one is set.
func faultPoint(ctx context.Context) {
	if fn := faultHook.Load(); fn != nil {
		(*fn)(ctx)
	}
}
