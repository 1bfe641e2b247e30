package dyndbscan

import (
	"sort"
	"sync/atomic"

	"dyndbscan/internal/pipeline"
)

// OverflowPolicy selects what happens when a subscriber's event queue is
// full because its callback is slower than the update stream.
type OverflowPolicy int

const (
	// BlockSubscriber (the default) applies backpressure: the updater blocks
	// until the subscriber drains. No event is ever lost, at the price that a
	// persistently slow subscriber eventually stalls updates again once its
	// buffer is exhausted. Lossless backpressure is fundamentally
	// incompatible with update re-entrancy: a callback that performs an
	// event-producing update while its own queue is full would be waiting on
	// a drain that only it can perform — the Engine detects this situation
	// and panics with a diagnosable message rather than hanging. The panic
	// marks a programming error and is not recoverable (the event pipeline
	// is wedged afterwards, like a map after a concurrent write). Callbacks
	// on a BlockSubscriber subscription should therefore not update the
	// Engine (queries are always fine); use DropOldest for subscribers that
	// write back.
	BlockSubscriber OverflowPolicy = iota
	// DropOldest keeps updates flowing no matter what: when the buffer is
	// full the oldest undelivered event is discarded. Delivery order is still
	// commit order; the stream just becomes lossy under sustained overload.
	DropOldest
)

// DefaultEventBuffer is the per-subscriber queue capacity used when
// SubscribeBuffer is not given.
const DefaultEventBuffer = 1024

// SubscribeOption configures one subscription; see Subscribe.
type SubscribeOption func(*subSettings)

type subSettings struct {
	buffer   int
	overflow OverflowPolicy
}

// SubscribeBuffer sets the subscriber's queue capacity (default
// DefaultEventBuffer; minimum 1).
func SubscribeBuffer(n int) SubscribeOption {
	return func(s *subSettings) { s.buffer = n }
}

// SubscribeOverflow sets the subscriber's overflow policy (default
// BlockSubscriber).
func SubscribeOverflow(p OverflowPolicy) SubscribeOption {
	return func(s *subSettings) { s.overflow = p }
}

// subscriber is one Subscribe registration: a bounded queue fed by the
// update paths (in commit order, admitted by publication ticket) and
// drained by a dedicated dispatcher goroutine running the callback.
type subscriber struct {
	fn      func(Event)
	q       *pipeline.Queue[Event]
	dropOld bool
	gid     atomic.Uint64 // dispatcher goroutine id, for self-feed detection
}

func (s *subscriber) run() {
	s.gid.Store(pipeline.GoroutineID())
	for {
		ev, ok := s.q.Get()
		if !ok {
			return
		}
		s.fn(ev)
		s.q.Done()
	}
}

// selfFeedPanic is the message of the fail-fast crash on the one
// unresolvable self-wait of async dispatch. The panic signals a programming
// error (like a concurrent map write): it is not recoverable — the
// publication chain is wedged afterwards — fix the subscriber instead.
const selfFeedPanic = "dyndbscan: deadlock: a subscriber callback performed an update while its own BlockSubscriber queue was full; use SubscribeOverflow(DropOldest) or a larger SubscribeBuffer for subscribers that write back into the Engine"

// enqueue delivers one event to a subscriber's queue, honoring its
// overflow policy. A lossless enqueue that is about to block re-checks who
// is blocking: if the publisher is the subscriber's own dispatcher (a
// callback performed an update while its own queue is full), waiting would
// deadlock the engine — room can only be made by the goroutine now waiting
// for it — so it panics with a diagnosable message instead of hanging.
func (e *Engine) enqueue(sub *subscriber, ev Event) bool {
	if sub.dropOld {
		return sub.q.Put(ev, true)
	}
	accepted, wouldBlock := sub.q.TryPut(ev)
	if !wouldBlock {
		return accepted
	}
	if sub.gid.Load() == pipeline.GoroutineID() {
		panic(selfFeedPanic)
	}
	// About to park on a full queue: wake the ticket waiters first, so a
	// dispatcher waiting for its publication turn re-runs its self-feed
	// check against the now-full queue (it could only drain this queue by
	// giving up that wait, which it never will — it must panic instead).
	e.pubMu.Lock()
	e.pubCond.Broadcast()
	e.pubMu.Unlock()
	return sub.q.Put(ev, false)
}

// selfFeedLocked reports whether the calling goroutine is the dispatcher of
// a lossless subscriber whose queue is currently full — in which case
// waiting for a publication turn can never end: a predecessor publisher
// must enqueue to every subscriber before finishing, so with this queue
// full and its only drainer here waiting, the predecessor can never finish.
// Caller holds pubMu (lock order: pubMu → subMu → queue mutex).
func (e *Engine) selfFeedLocked() bool {
	gid := pipeline.GoroutineID()
	for _, sub := range e.subscribers() {
		if !sub.dropOld && sub.gid.Load() == gid && sub.q.Full() {
			return true
		}
	}
	return false
}

// Subscribe registers fn to receive cluster-evolution events (merges,
// splits, core/noise transitions, ...) and returns a cancel function.
//
// Delivery is asynchronous: events are queued at commit time and fn runs on
// a dispatcher goroutine owned by this subscription, so a slow callback
// never executes on an updater's critical path. Per subscription, events
// arrive in commit order, and events produced by one update are delivered
// after that update commits. What happens when fn falls behind by more than
// the queue capacity is chosen by SubscribeOverflow. Use Sync to wait for
// everything already committed to be delivered, and cancel (or Engine.Close)
// to release the subscription's goroutine and buffer when done with it.
//
// fn may query the Engine freely (ClusterOf, Snapshot, GroupBy, ...). fn
// may also perform updates — but only on a DropOldest subscription: under
// BlockSubscriber a re-entrant update whose events hit the subscription's
// own full queue is an unresolvable self-wait, which the Engine turns into
// a panic (see OverflowPolicy). The cancel function is idempotent; it
// stops delivery, discards this subscription's undelivered events, and does
// not wait for an in-flight callback (call Sync first for a clean drain).
func (e *Engine) Subscribe(fn func(Event), opts ...SubscribeOption) (cancel func()) {
	st := subSettings{buffer: DefaultEventBuffer, overflow: BlockSubscriber}
	for _, opt := range opts {
		opt(&st)
	}
	sub := &subscriber{
		fn:      fn,
		q:       pipeline.NewQueue[Event](st.buffer),
		dropOld: st.overflow == DropOldest,
	}
	e.subMu.Lock()
	id := e.nextSub
	e.nextSub++
	e.subs[id] = sub
	e.subMu.Unlock()
	go sub.run()
	e.sh.syncEvents()
	return func() {
		e.subMu.Lock()
		_, present := e.subs[id]
		delete(e.subs, id)
		e.subMu.Unlock()
		if present {
			sub.q.Close()
			e.sh.syncEvents()
		}
	}
}

// Close cancels every active subscription (dispatcher goroutines stop and
// undelivered events are discarded) and, on an Engine with a write-ahead log,
// flushes and fsyncs the log's tail and closes it — after Close returns, every
// previously committed update is durable, and further updates fail with the
// log's ErrClosed. When checkpoints are enabled, Close also seals the log with
// a final checkpoint, so a clean shutdown reopens with the exact cluster-id
// assignment it closed with (a crash preserves memberships and handles
// exactly, and ids as of the last checkpoint). The Engine otherwise stays usable: queries keep working,
// and on an Engine without a WAL updates and new subscriptions do too. Close
// is idempotent and safe to call concurrently with updates. Call it before
// dropping an Engine: subscriptions otherwise pin their dispatcher goroutines
// and buffers, and a WAL tail under group commit may not be on disk yet.
func (e *Engine) Close() error {
	e.subMu.Lock()
	subs := make([]*subscriber, 0, len(e.subs))
	for _, sub := range e.subs {
		subs = append(subs, sub)
	}
	clear(e.subs)
	e.subMu.Unlock()
	for _, sub := range subs {
		sub.q.Close()
	}
	if len(subs) > 0 {
		e.sh.syncEvents()
	}
	// Drain staged hotspot deltas before the log seals: every acked insert
	// gets its reconcile commit (and WAL record) now, so a clean shutdown
	// loses nothing.
	e.sh.drainStaged()
	return e.wal.closeWAL(e)
}

// publishOrdered enqueues evs to every current subscriber, admitting
// publishers strictly in ticket order. The enqueue phase holds no engine
// lock, so a publisher blocked on a full BlockSubscriber queue stalls later
// publications (they committed after it, so they must wait anyway) but
// never stalls queries — the subscriber's callback can always drain.
func (e *Engine) publishOrdered(ticket uint64, evs []Event) {
	e.pubMu.Lock()
	for e.pubNext != ticket {
		// Re-checked on every wake: blocked publishers broadcast pubCond
		// when they park on a full queue, so a dispatcher waiting here
		// fails fast the moment its own queue becomes the blocker.
		if e.selfFeedLocked() {
			e.pubMu.Unlock()
			panic(selfFeedPanic)
		}
		e.pubCond.Wait()
	}
	e.pubMu.Unlock()
	for _, sub := range e.subscribers() {
		for _, ev := range evs {
			if !e.enqueue(sub, ev) {
				break // canceled mid-publish
			}
		}
	}
	e.pubMu.Lock()
	e.pubNext++
	e.pubCond.Broadcast()
	e.pubMu.Unlock()
}

// subscribers returns the current subscribers in subscription order.
func (e *Engine) subscribers() []*subscriber {
	e.subMu.Lock()
	keys := make([]int, 0, len(e.subs))
	for k := range e.subs {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]*subscriber, len(keys))
	for i, k := range keys {
		out[i] = e.subs[k]
	}
	e.subMu.Unlock()
	return out
}

// Sync blocks until every event produced by updates that committed before
// the call has been delivered to (or, under DropOldest, dropped by) every
// current subscriber — a barrier between the async event stream and the
// caller. Events from updates racing with Sync may or may not be covered,
// and Sync stays live under a sustained update stream: it waits for a drain
// point, not for the queues to be empty. Sync must not be called from
// inside a subscriber callback.
func (e *Engine) Sync() {
	// Sync is a hotspot join trigger: staged inserts reconcile (and publish
	// their events) before the delivery barrier is measured. The barrier
	// join waits out an in-flight fold — an advisory join could return while
	// deltas staged before this call are still pending, because the fold
	// snapshotted its stripes before them.
	e.sh.joinAllWait(joinSync)
	// Every update that committed before this point took its publication
	// ticket inside its critical section; wait for all issued tickets to
	// finish enqueueing, then for each subscriber to settle everything
	// enqueued up to that instant.
	horizon := e.pubTicket.Load()
	e.pubMu.Lock()
	for e.pubNext < horizon {
		e.pubCond.Wait()
	}
	e.pubMu.Unlock()
	for _, sub := range e.subscribers() {
		sub.q.WaitHandled(sub.q.Barrier())
	}
}
