package engine

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"bsched/internal/compile"
	"bsched/internal/ir"
)

// TestCloseFailsQueuedAndJoined: with the one worker held by a compile,
// a second key is queued behind it and a second request joins that
// key's entry. Close fails both waits with ErrShutdown, never runs the
// queued compile, and leaves the key without a cache entry.
func TestCloseFailsQueuedAndJoined(t *testing.T) {
	held := make(chan struct{})
	var calls atomic.Int32
	en, err := New(Config{Workers: 1,
		CompileFn: func(ctx context.Context, b *ir.Block, _ compile.Options) (*compile.BlockResult, error) {
			calls.Add(1)
			close(held)
			<-ctx.Done()
			return nil, ctx.Err()
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer en.Close()
	ctx := context.Background()
	job := func(k uint64) Job {
		return Job{Block: &ir.Block{Label: "b"}, Deadline: time.Now().Add(time.Minute), Key: Key{Block: k}, Tier: "default"}
	}
	if res, err := en.Resolve(ctx, job(1)); err != nil || res.Source != SourceMiss {
		t.Fatalf("first key: source %v, err %v; want a queued miss", res.Source, err)
	}
	<-held
	queued, err := en.Resolve(ctx, job(2))
	if err != nil || queued.Source != SourceMiss {
		t.Fatalf("second key: source %v, err %v; want a queued miss", queued.Source, err)
	}
	joined, err := en.Resolve(ctx, job(2))
	if err != nil || joined.Source != SourceCoalesced {
		t.Fatalf("second key again: source %v, err %v; want coalesced", joined.Source, err)
	}
	errs := make(chan error, 2)
	for _, r := range []Resolution{queued, joined} {
		go func() {
			_, err := en.Wait(ctx, r)
			errs <- err
		}()
	}
	en.Close()
	for range 2 {
		if err := <-errs; !errors.Is(err, ErrShutdown) {
			t.Errorf("wait after Close: %v, want ErrShutdown", err)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("%d compiles, want only the held one", n)
	}
	if _, ok := en.cache.peek(Key{Block: 2}); ok {
		t.Error("the queued key still holds a cache entry after Close")
	}
}
