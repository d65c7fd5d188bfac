package obs

import "sync"

// Fanout broadcasts observability events to a dynamic set of subscribers —
// the bridge between one run's tracer/reporter (attached via Tracer.Tee and
// a progress callback) and any number of live listeners such as SSE
// streams. It is concurrency-safe and decouples publishers from consumers:
//
//   - A replay ring keeps the most recent replayEvents events, so a
//     subscriber joining mid-run first receives everything published so far
//     (from the start of the run unless the ring overflowed) and then the
//     live tail with no gap and no duplicates: the replay snapshot and the
//     channel registration happen under one lock. Once full, the ring
//     overwrites its oldest event in place, so Publish costs the same at the
//     millionth event as at the first.
//   - Each subscriber gets its own channel of subscriberBuffer events. A
//     subscriber that stops draining loses events (dropped, counted) rather
//     than blocking the publisher — the run never waits on a slow consumer.
//
// A nil *Fanout ignores Publish and Close, so callers can wire it
// unconditionally.
type Fanout struct {
	mu     sync.Mutex
	closed bool
	// ring is the replay buffer. It grows to replayEvents; from then on
	// head indexes the oldest event, which the next Publish overwrites.
	ring    []Event
	head    int
	dropped int64
	subs    map[int]chan Event
	nextID  int
}

const (
	// replayEvents bounds the replay ring. When it overflows, the oldest
	// events are evicted: late subscribers then see a truncated prefix, but
	// sequence numbers stay strictly increasing.
	replayEvents = 4096
	// subscriberBuffer sizes each subscriber's live channel.
	subscriberBuffer = 256
)

// NewFanout builds an empty fan-out.
func NewFanout() *Fanout {
	return &Fanout{subs: make(map[int]chan Event)}
}

// Publish appends e to the replay ring and offers it to every subscriber
// without blocking. After Close it is a no-op.
func (f *Fanout) Publish(e Event) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	if len(f.ring) < replayEvents {
		f.ring = append(f.ring, e)
	} else {
		f.ring[f.head] = e
		f.head = (f.head + 1) % replayEvents
		f.dropped++
	}
	for _, ch := range f.subs {
		select {
		case ch <- e:
		default:
			f.dropped++
		}
	}
}

// Subscribe atomically snapshots the replay ring, oldest event first, and
// registers a new subscriber, so replay followed by the channel yields every
// event exactly once. cancel deregisters
// and closes the channel; it is idempotent and safe after Close. On a
// closed fan-out the returned channel is already closed, so a consumer
// ranging over it sees the replay and terminates.
func (f *Fanout) Subscribe() (replay []Event, events <-chan Event, cancel func()) {
	f.mu.Lock()
	defer f.mu.Unlock()
	replay = make([]Event, 0, len(f.ring))
	replay = append(replay, f.ring[f.head:]...)
	replay = append(replay, f.ring[:f.head]...)
	ch := make(chan Event, subscriberBuffer)
	if f.closed {
		close(ch)
		return replay, ch, func() {}
	}
	id := f.nextID
	f.nextID++
	f.subs[id] = ch
	var once sync.Once
	cancel = func() {
		once.Do(func() {
			f.mu.Lock()
			defer f.mu.Unlock()
			if sch, ok := f.subs[id]; ok {
				delete(f.subs, id)
				close(sch)
			}
		})
	}
	return replay, ch, cancel
}

// Close ends the stream: every subscriber channel is closed (consumers
// ranging over them terminate after draining) and later Publish calls are
// dropped. The replay ring stays readable, so a subscriber arriving after
// Close still receives the run's tail. Idempotent.
func (f *Fanout) Close() {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.closed = true
	for id, ch := range f.subs {
		delete(f.subs, id)
		close(ch)
	}
}

// Dropped reports how many events were lost to slow subscribers plus how
// many were evicted from the replay ring — the service exposes it so a
// consumer can tell a complete stream from a sampled one.
func (f *Fanout) Dropped() int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dropped
}
