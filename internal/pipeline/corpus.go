// Package pipeline runs many independent analyses over a bounded
// worker pool: RunCorpus returns one CorpusResult per input, in input
// order, so serial and parallel runs produce identical output streams.
// The phases of one analysis run in internal/core.
package pipeline

import (
	"context"
	"runtime"
	"sync"
	"time"
)

// CorpusResult is the outcome of one corpus job.
type CorpusResult[Out any] struct {
	// Index is the job's position in the input slice; results are
	// returned in input order regardless of completion order.
	Index int
	Out   Out
	Err   error
	// Wall is the job's wall-clock duration (zero when the job was
	// skipped by cancellation).
	Wall time.Duration
}

// RunCorpus runs fn over every input with a bounded worker pool of
// the given size (jobs <= 0 means GOMAXPROCS). Each input is an
// independent analysis; results come back in input order, one per
// input, so parallel and serial execution produce identical output
// streams. When ctx is cancelled, jobs not yet started complete
// immediately with ctx.Err(); jobs already running finish (their fn
// receives ctx and may cut itself short).
func RunCorpus[In, Out any](ctx context.Context, inputs []In, jobs int, fn func(context.Context, In) (Out, error)) []CorpusResult[Out] {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(inputs) {
		jobs = len(inputs)
	}
	results := make([]CorpusResult[Out], len(inputs))
	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				if err := ctx.Err(); err != nil {
					results[i] = CorpusResult[Out]{Index: i, Err: err}
					continue
				}
				t0 := time.Now()
				out, err := fn(ctx, inputs[i])
				results[i] = CorpusResult[Out]{
					Index: i, Out: out, Err: err, Wall: time.Since(t0),
				}
			}
		}()
	}
	for i := range inputs {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()
	return results
}
