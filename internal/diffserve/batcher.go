package diffserve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/derrors"
	"repro/internal/engine"
	"repro/internal/telemetry"
)

// job is one diff request waiting for dispatch: the pair to diff and a
// one-slot channel its result is delivered on. The slot means delivery
// never blocks, so a caller that gave up (request context cancelled) does
// not wedge a dispatch loop. enqueued timestamps admission so the queue
// span covers the wait from submit to dispatch.
type job struct {
	pair     engine.Pair
	enqueued time.Time
	done     chan engine.PairResult
}

// batcher dispatches jobs to the engine by group commit: each of its
// dispatch loops takes the next job as soon as it is free, folds in
// whatever else is already queued (up to max) without waiting, and runs
// the lot as one engine batch. A request that finds a loop free is
// dispatched at once; jobs that arrive while every loop is busy share the
// next batch. Nothing is held back on a timer: a diff is a pure function
// of its two trees, so there is nothing to gain by waiting for company.
type batcher struct {
	eng *engine.Engine
	max int

	// jobs is the admission queue: its capacity is the backpressure bound
	// (Config.MaxQueue); the server sheds when a non-blocking send fails.
	jobs chan *job
	// stopped is closed when the last dispatch loop exits (after the
	// queue is closed and every remaining job has been answered).
	stopped chan struct{}

	// draining, when set (by Server.Drain, before closing jobs), makes the
	// batcher answer queued-but-unstarted jobs with a clean shutdown error
	// instead of diffing them. Batches already handed to the engine run to
	// completion regardless.
	draining func() bool
	// onBatch and onDone feed the service metrics: one call per engine
	// batch with its size, one call per job answered.
	onBatch func(size int)
	onDone  func()
	// spans, when non-nil, records one "diffserve.queue" span per job at
	// dispatch covering its wait since admission.
	spans telemetry.SpanSink
}

// newBatcher starts the given number of dispatch loops, all reading one
// admission queue of capacity queue.
func newBatcher(eng *engine.Engine, loops, max, queue int, draining func() bool, onBatch func(int), onDone func(), spans telemetry.SpanSink) *batcher {
	b := &batcher{
		eng:      eng,
		max:      max,
		jobs:     make(chan *job, queue),
		stopped:  make(chan struct{}),
		draining: draining,
		onBatch:  onBatch,
		onDone:   onDone,
		spans:    spans,
	}
	var wg sync.WaitGroup
	wg.Add(loops)
	for range loops {
		go func() {
			defer wg.Done()
			b.run()
		}()
	}
	go func() {
		wg.Wait()
		close(b.stopped)
	}()
	return b
}

// run is one dispatch loop: it blocks only for the first job of a batch.
func (b *batcher) run() {
	batch := make([]*job, 0, b.max)
	for first := range b.jobs {
		batch = append(batch[:0], first)
	fill:
		for len(batch) < b.max {
			select {
			case j, ok := <-b.jobs:
				if !ok {
					break fill
				}
				batch = append(batch, j)
			default:
				break fill
			}
		}
		b.flush(batch)
	}
}

// flush runs one batch on the engine. The batch runs under
// context.Background(), not any single request's context: its jobs come
// from different callers, so one caller hanging up must not abort its
// neighbours' diffs. Per-pair deadlines still apply through the engine's
// DiffTimeout.
func (b *batcher) flush(batch []*job) {
	if b.draining() {
		for _, j := range batch {
			b.fail(j, drainingError())
		}
		return
	}
	pairs := make([]engine.Pair, len(batch))
	now := time.Now()
	for i, j := range batch {
		// The queue span back-dates to admission, closing as the batch is
		// handed to the engine: it measures the wait for a free loop.
		sp := telemetry.StartSpanAt(b.spans, j.pair.Trace, "diffserve.queue", j.enqueued)
		sp.SetAttr("batch_size", len(batch))
		sp.EndAt(now)
		pairs[i] = j.pair
	}
	b.onBatch(len(batch))
	results, err := b.eng.DiffBatch(context.Background(), pairs)
	if err != nil {
		for _, j := range batch {
			b.fail(j, err)
		}
		return
	}
	for i, j := range batch {
		j.done <- results[i]
		b.onDone()
	}
}

func (b *batcher) fail(j *job, err error) {
	j.done <- engine.PairResult{Err: err}
	b.onDone()
}

func drainingError() error {
	return fmt.Errorf("diffserve: %w: server is draining", derrors.ErrServiceUnavailable)
}
