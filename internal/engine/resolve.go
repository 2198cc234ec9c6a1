package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"bsched/internal/admission"
	"bsched/internal/obs"
)

// Source is how Resolve found a block. The order is the request-level
// disposition's: a program is as far from a memory hit as its worst
// block.
type Source int

const (
	SourceMemory    Source = iota // a completed entry: a memory hit
	SourcePeer                    // the key's ring owner's copy
	SourceDisk                    // a persistent-cache record
	SourceCoalesced               // another request's in-flight entry, joined
	SourceMiss                    // led: the block's job was queued, or refused
)

// String is the source's label: hit, peer, disk, coalesced or miss.
func (s Source) String() string {
	return [...]string{"hit", "peer", "disk", "coalesced", "miss"}[s]
}

// ProbeOutcome classifies one Fleet.Probe call for metrics and traces.
type ProbeOutcome int

const (
	ProbeOutcomeHit   ProbeOutcome = iota // the owner returned the compiled response
	ProbeOutcomeMiss                      // the owner answered 404: it has no entry either
	ProbeOutcomeError                     // transport failure, bad status or invalid body; feeds the peer's breaker
	ProbeOutcomeSkip                      // no request sent: the peer's breaker was open or its in-flight bound reached
)

// String is the outcome's label: hit, miss, error or skip.
func (o ProbeOutcome) String() string {
	return [...]string{"hit", "miss", "error", "skip"}[o]
}

// Resolution is what Resolve found for one block: Resp when the block
// was served at once (memory, peer, disk), otherwise the in-flight
// entry Wait blocks on (coalesced, miss).
type Resolution struct {
	Source Source
	Resp   *BlockResponse

	e        *entry
	deadline time.Time // a joined wait's bound: its request's deadline
}

// Resolve finds block j.Key for one request: a completed memory entry,
// else another request's in-flight entry to join, else — as the block's
// single-flight leader — a persistent-cache record, the key's ring
// owner's copy, or a compile job on the admission queue. N concurrent
// requests needing one block cost one disk read, one probe and one
// compile. The request's trace rides ctx, and ctx bounds the probe.
//
// A non-nil error is an admission refusal of a block the request leads:
// ErrInfeasible, admission.ErrShed or admission.ErrFull, with Source
// SourceMiss. The entry is already failed, so requests that joined it
// fail too; blocks the request queued earlier keep compiling and warm
// the cache regardless.
func (en *Engine) Resolve(ctx context.Context, j Job) (Resolution, error) {
	e, leader := en.cache.lookup(j.Key)
	if !leader {
		if e.completed() {
			return Resolution{Source: SourceMemory, Resp: e.resp}, nil
		}
		return Resolution{Source: SourceCoalesced, e: e, deadline: j.Deadline}, nil
	}
	// The served record or copy becomes the completed memory entry, so
	// later requests for the block are memory hits; the root event tells
	// the dispositions apart in traces.
	tr := obs.TraceFrom(ctx)
	if resp, ok := en.diskGet(j.Key, tr); ok {
		tr.Root().Event("disk-hit")
		en.cache.settle(j.Key, e, resp, nil)
		return Resolution{Source: SourceDisk, Resp: resp}, nil
	}
	if resp := en.probe(ctx, j.Key, tr); resp != nil {
		tr.Root().Event("peer-hit")
		en.cache.settle(j.Key, e, resp, nil)
		return Resolution{Source: SourcePeer, Resp: resp}, nil
	}
	// Deadline-aware admission, per block: when the tier's observed p99
	// compile estimate already exceeds the request's remaining deadline,
	// queueing would only burn a worker on a result nobody waits for.
	// The estimator reports zero (no opinion) until it has enough
	// samples, so cold tiers always admit.
	if est := en.est.Estimate(j.Tier, len(j.Block.Instrs)); est > 0 && est > time.Until(j.Deadline) {
		tr.Root().Event("503-infeasible")
		tr.Root().SetAttr("estimate_ms", fmt.Sprint(est.Milliseconds()))
		en.cache.settle(j.Key, e, nil, ErrInfeasible)
		return Resolution{Source: SourceMiss}, ErrInfeasible
	}
	q := &queued{Job: j, e: e, tr: tr, queue: en.cfg.Stages.StartStage(tr, nil, StageQueue)}
	if err := en.adm.Push(j.Priority, q); err != nil {
		// Rejected at admission: CoDel shedding (the queue has room but
		// accepted work is already waiting past target) or the hard depth
		// bound. The queue stage ends with the error, so shedding is
		// visible in traces and the stage histogram, and a shed storm (a
		// burst inside the profiler's window) captures a profile of the
		// overloaded moment.
		q.queue.End(err)
		if errors.Is(err, admission.ErrShed) {
			tr.Root().Event("503-shed")
		} else {
			tr.Root().Event("503-backpressure")
		}
		en.cfg.Profiler.Event("shed_burst")
		en.cache.settle(j.Key, e, nil, ErrBusy)
		return Resolution{Source: SourceMiss}, err
	}
	return Resolution{Source: SourceMiss, e: e}, nil
}

// Wait returns r's response: at once for a block Resolve served, and
// for an in-flight one when its entry completes. A leader's wait has no
// timer: its job compiles under the request's deadline and degrades
// rather than fails. A joined wait, timed as the coalesced stage, ends
// at its own request's deadline with ErrDeadline, not the leader's: a
// program asking for 100ms must not block for an in-flight leader's
// 60s. Either ends with ctx's error when ctx ends, and with ErrShutdown
// when the engine closes; the entry still completes for everyone else.
func (en *Engine) Wait(ctx context.Context, r Resolution) (*BlockResponse, error) {
	switch r.Source {
	case SourceMiss:
		return en.wait(ctx, r.e, time.Time{})
	case SourceCoalesced:
		stage := en.cfg.Stages.StartStage(obs.TraceFrom(ctx), nil, StageCoalesced)
		resp, err := en.wait(ctx, r.e, r.deadline)
		stage.End(err)
		return resp, err
	}
	return r.Resp, nil
}

// Read answers a peer's lookup of key. The prober holds no program
// text, so the lookup never leads a compile: it serves a completed
// memory entry, or holds an in-flight one for up to hold (a short hold
// beats the prober duplicating work about to finish), or, with no
// entry resident, a persistent-cache record. It reports SourceMemory or
// SourceDisk, with a nil response when it has nothing servable.
func (en *Engine) Read(ctx context.Context, key Key, hold time.Duration) (*BlockResponse, Source) {
	if e, ok := en.cache.peek(key); ok {
		// Still in flight after the hold, or failed: nothing servable.
		// (A failed entry is transient — settle removes it — so a miss
		// here is a race, not a contradiction.)
		resp, _ := en.wait(ctx, e, time.Now().Add(hold))
		return resp, SourceMemory
	}
	resp, _ := en.diskGet(key, obs.TraceFrom(ctx))
	return resp, SourceDisk
}

// wait is the one blocking select on an entry's completion. It returns
// e's outcome once e completes, ErrDeadline at deadline (zero: none),
// ctx's error when ctx ends, and ErrShutdown when the engine closes. An
// entry already complete returns its outcome whatever else has ended.
func (en *Engine) wait(ctx context.Context, e *entry, deadline time.Time) (*BlockResponse, error) {
	if e.completed() {
		return e.resp, e.err
	}
	var expire <-chan time.Time
	if !deadline.IsZero() {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		expire = t.C
	}
	select {
	case <-e.done:
		return e.resp, e.err
	case <-expire:
		return nil, ErrDeadline
	case <-ctx.Done():
		// The compilation still completes and populates the cache for
		// the next asker. Its spans keep appending to the request's trace
		// after the root finishes; the stored snapshot may miss them.
		return nil, ctx.Err()
	case <-en.ctx.Done():
		return nil, ErrShutdown
	}
}

// diskGet is the disk stage: a persistent-cache probe, when there is a
// cache. It does not touch the memory cache.
func (en *Engine) diskGet(key Key, tr *obs.Trace) (*BlockResponse, bool) {
	if en.disk == nil {
		return nil, false
	}
	defer en.cfg.Stages.StartStage(tr, nil, StageDisk).End(nil) // starts now, ends at return
	return en.disk.get(key)
}

// probe is the peer stage: it asks a foreign key's ring owner for its
// copy. Every outcome but a hit (miss, breaker-skipped, transport
// error, budget exceeded) returns nil and the leader compiles locally:
// a peer can slow a request by at most the probe budget, never fail it.
func (en *Engine) probe(ctx context.Context, key Key, tr *obs.Trace) *BlockResponse {
	if en.cfg.Peers == nil {
		return nil
	}
	owner, self := en.cfg.Peers.Owner(key)
	if self {
		return nil
	}
	stage := en.cfg.Stages.StartStage(tr, nil, StagePeer)
	span := stage.Span()
	span.SetAttr("owner", owner)
	traceparent := ""
	if tr != nil {
		// The probe span is the parent of whatever the owner records, so
		// the two nodes' spans assemble into one cross-node tree.
		traceparent = obs.FormatTraceparent(tr.ID, span.ID)
	}
	resp, outcome := en.cfg.Peers.Probe(ctx, owner, key, traceparent)
	en.met.peerProbes.With(outcome.String()).Inc()
	span.SetAttr("outcome", outcome.String())
	stage.End(nil)
	return resp
}
