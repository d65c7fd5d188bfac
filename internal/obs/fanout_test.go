package obs

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// TestFanoutReplayThenLive: a subscriber joining mid-stream sees every event
// exactly once — the published prefix via replay, the rest via the channel.
func TestFanoutReplayThenLive(t *testing.T) {
	f := NewFanout()
	for i := 0; i < 10; i++ {
		f.Publish(Event{Seq: int64(i + 1), Layer: "obs", Kind: "x"})
	}
	replay, events, cancel := f.Subscribe()
	defer cancel()
	if len(replay) != 10 {
		t.Fatalf("replay = %d events, want 10", len(replay))
	}
	for i := 10; i < 20; i++ {
		f.Publish(Event{Seq: int64(i + 1), Layer: "obs", Kind: "x"})
	}
	f.Close()
	var got []int64
	for _, e := range replay {
		got = append(got, e.Seq)
	}
	for e := range events {
		got = append(got, e.Seq)
	}
	if len(got) != 20 {
		t.Fatalf("saw %d events, want 20", len(got))
	}
	for i, seq := range got {
		if seq != int64(i+1) {
			t.Fatalf("event %d has seq %d, want %d (duplicate or gap)", i, seq, i+1)
		}
	}
	if f.Dropped() != 0 {
		t.Errorf("dropped = %d, want 0", f.Dropped())
	}
}

// TestFanoutSlowSubscriberDrops: a subscriber that never drains loses events
// without blocking Publish, and the loss is counted.
func TestFanoutSlowSubscriberDrops(t *testing.T) {
	f := NewFanout()
	_, events, cancel := f.Subscribe()
	defer cancel()
	for i := 0; i < subscriberBuffer+100; i++ {
		f.Publish(Event{Seq: int64(i + 1)})
	}
	if got := len(events); got != subscriberBuffer {
		t.Errorf("channel holds %d events, want %d", got, subscriberBuffer)
	}
	if f.Dropped() != 100 {
		t.Errorf("dropped = %d, want 100", f.Dropped())
	}
}

// TestFanoutReplayEviction: the replay ring is bounded; old events are
// evicted and counted, and replay stays in publish order across the wrap.
func TestFanoutReplayEviction(t *testing.T) {
	f := NewFanout()
	for i := 0; i < replayEvents+12; i++ {
		f.Publish(Event{Seq: int64(i + 1)})
	}
	replay, _, cancel := f.Subscribe()
	cancel()
	if len(replay) != replayEvents {
		t.Fatalf("replay = %d events, want %d", len(replay), replayEvents)
	}
	for i, e := range replay {
		if e.Seq != int64(i+13) {
			t.Fatalf("replay[%d] has seq %d, want %d", i, e.Seq, i+13)
		}
	}
	if f.Dropped() != 12 {
		t.Errorf("dropped = %d, want 12", f.Dropped())
	}
}

// TestFanoutFullRingPublishAllocs: once the replay ring is full, Publish
// overwrites in place — no allocation and no copy of the ring per event, so
// a long run's tracer never stalls behind the fan-out.
func TestFanoutFullRingPublishAllocs(t *testing.T) {
	f := NewFanout()
	for i := 0; i < replayEvents; i++ {
		f.Publish(Event{Seq: int64(i + 1)})
	}
	seq := int64(replayEvents)
	allocs := testing.AllocsPerRun(100, func() {
		seq++
		f.Publish(Event{Seq: seq})
	})
	if allocs != 0 {
		t.Errorf("Publish on a full ring allocates %v times, want 0", allocs)
	}
}

// TestFanoutCloseAndCancel: Close terminates consumers; cancel is idempotent
// and safe after Close; a post-Close subscriber still gets the replay with
// an already-closed channel; Publish after Close is a no-op.
func TestFanoutCloseAndCancel(t *testing.T) {
	f := NewFanout()
	f.Publish(Event{Seq: 1})
	_, events, cancel := f.Subscribe()
	f.Close()
	if _, ok := <-events; ok {
		t.Errorf("subscriber channel not closed by Close")
	}
	cancel()
	cancel()
	f.Close()
	f.Publish(Event{Seq: 2})
	replay, late, _ := f.Subscribe()
	if len(replay) != 1 || replay[0].Seq != 1 {
		t.Errorf("post-Close replay = %v", replay)
	}
	if _, ok := <-late; ok {
		t.Errorf("post-Close subscription channel is open")
	}
}

// TestFanoutNil: a nil fan-out ignores every call.
func TestFanoutNil(t *testing.T) {
	var f *Fanout
	f.Publish(Event{})
	f.Close()
	if f.Dropped() != 0 {
		t.Errorf("nil Dropped != 0")
	}
}

// TestFanoutConcurrent hammers publish/subscribe/cancel from many
// goroutines; the race detector is the assertion. The publishers together
// emit twice replayEvents, so the ring wraps and evicts while subscribers
// snapshot it.
func TestFanoutConcurrent(t *testing.T) {
	f := NewFanout()
	const perPublisher = replayEvents / 2
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perPublisher; i++ {
				f.Publish(Event{Seq: int64(p*perPublisher + i + 1)})
			}
		}(p)
	}
	for s := 0; s < 8; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			replay, events, cancel := f.Subscribe()
			_ = replay
			for range 20 {
				select {
				case <-events:
				default:
				}
			}
			cancel()
		}()
	}
	wg.Wait()
	if got, want := f.Dropped(), int64(4*perPublisher-replayEvents); got < want {
		t.Errorf("Dropped = %d, want at least the %d evictions", got, want)
	}
	f.Close()
}

// TestTracerTee: every event emitted through the tracer also reaches the tee
// with its sequence number and schema version already assigned.
func TestTracerTee(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	var teed []Event
	tr.Tee(func(e Event) { teed = append(teed, e) })
	for i := 0; i < 5; i++ {
		tr.Emit(Event{Layer: "obs", Kind: fmt.Sprintf("k%d", i), Node: -1})
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(teed) != 5 {
		t.Fatalf("tee saw %d events, want 5", len(teed))
	}
	for i, e := range teed {
		if e.Seq != int64(i+1) || e.V != TraceSchemaVersion {
			t.Errorf("teed event %d: seq=%d v=%d", i, e.Seq, e.V)
		}
		if err := ValidateEvent(e); err != nil {
			t.Errorf("teed event %d invalid: %v", i, err)
		}
	}
	// Detaching the tee stops the callbacks.
	tr.Tee(nil)
	tr.Emit(Event{Layer: "obs", Kind: "after", Node: -1})
	if len(teed) != 5 {
		t.Errorf("tee saw %d events after detach, want 5", len(teed))
	}
}
