// Package par provides the tiny worker-pool primitive behind the
// concurrent experiment engine: bounded fan-out over an index space
// with results written into caller-owned slots.
//
// Parallelism here is free of randomness by construction — workers
// race only over *which* index they claim next, never over what any
// index computes or where its result lands. As long as fn(i) is a
// pure function of i (the engine derives per-shard RNG streams with
// stats.RNG.SplitAt to guarantee exactly that), Pool.Each yields
// bit-identical results for every pool size, including serial.
package par

import (
	"sync"
	"sync/atomic"
)

// Pool bounds the total helper goroutines across every Each issued
// against it, including nested ones: a caller that is already inside
// a Pool.Each shard and fans out again does not multiply the
// concurrency. A pool of size w holds w-1 helper permits — the
// calling goroutine always counts as the w-th worker.
type Pool struct {
	sem chan struct{}
}

// NewPool returns a pool running at most workers shards concurrently
// pool-wide. workers <= 1 yields a serial pool.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	return &Pool{sem: make(chan struct{}, workers-1)}
}

// Each invokes fn(i) for every i in [0, n). The calling goroutine
// always processes shards itself; helper goroutines join whenever a
// pool permit is free — checked on entry and again between the
// caller's shards, so capacity freed mid-run by sibling Each calls
// is picked up. Acquisition is non-blocking, so nested Each calls
// can never deadlock: at worst they run serially on their caller.
// A nil pool is serial.
func (p *Pool) Each(n int, fn func(int)) {
	if n <= 0 {
		return
	}
	// Work-claiming counter rather than pre-chunking: shards are far
	// from uniform in cost (a downloading trace holds ~100x the
	// packets of a chatting trace), so static chunks would leave
	// workers idle behind the slowest stripe.
	var next atomic.Int64
	var wg sync.WaitGroup
	recruit := func() {
		if p == nil {
			return
		}
		for int(next.Load()) < n {
			select {
			case p.sem <- struct{}{}:
				wg.Add(1)
				go func() {
					defer func() {
						<-p.sem
						wg.Done()
					}()
					for {
						i := int(next.Add(1)) - 1
						if i >= n {
							return
						}
						fn(i)
					}
				}()
			default:
				return
			}
		}
	}
	for {
		recruit()
		i := int(next.Add(1)) - 1
		if i >= n {
			break
		}
		fn(i)
	}
	wg.Wait()
}
