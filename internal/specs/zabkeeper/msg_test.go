package zabkeeper

import (
	"reflect"
	"strings"
	"testing"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/spec"
)

// TestPackIsLossless: a message of each kind with every field its kind
// carries set comes back from the stored form field for field.
func TestPackIsLossless(t *testing.T) {
	hist := []Txn{{Epoch: 1, Counter: 1, Value: "v1"}}
	for _, m := range []Msg{
		{Type: "notif", Round: 2, State: Leading, Vote: Vote{Leader: 2, Epoch: 1, Counter: 3}},
		{Type: "notif", Round: 1, Vote: Vote{Leader: -1}},
		{Type: "finfo", Epoch: 2, Counter: 3, NewEpoch: 1},
		{Type: "sync", NewEpoch: 3, History: hist, Committed: 1},
		{Type: "ackld", Epoch: 2, Counter: 3},
		{Type: "prop", Epoch: 2, Counter: 3, Value: "v2"},
		{Type: "ack", Epoch: 2, Counter: 3},
		{Type: "commit", Index: 4},
	} {
		p, ok := pack(m)
		if !ok {
			t.Errorf("pack refuses %+v", m)
		} else if got := p.unpack(); !reflect.DeepEqual(got, m) {
			t.Errorf("stored %+v, loaded %+v", m, got)
		}
	}
}

// TestPackRefusesWhatItWouldAlter sets each integer of Msg alone on a message
// of each kind: pack either keeps it or says it cannot, and mustPack panics on a
// message pack refuses, so a handler that sets an operand its kind does not
// carry fails loudly. An integer beyond its stored width is always refused.
func TestPackRefusesWhatItWouldAlter(t *testing.T) {
	kept, refused := 0, 0
	check := func(m Msg) bool {
		p, ok := pack(m)
		if ok {
			if got := p.unpack(); !reflect.DeepEqual(got, m) {
				t.Errorf("pack accepted %+v but loads %+v", m, got)
			}
			return true
		}
		defer func() {
			if recover() == nil {
				t.Errorf("mustPack stored %+v, which pack refuses", m)
			}
		}()
		newState(2).Send(0, 1, mustPack(m))
		return false
	}
	ints := func(m *Msg) map[string]*int {
		return map[string]*int{
			"Round": &m.Round, "State": &m.State,
			"Vote.Leader": &m.Vote.Leader, "Vote.Epoch": &m.Vote.Epoch, "Vote.Counter": &m.Vote.Counter,
			"Epoch": &m.Epoch, "Counter": &m.Counter, "NewEpoch": &m.NewEpoch,
			"Committed": &m.Committed, "Index": &m.Index,
		}
	}
	if got, want := len(ints(&Msg{})), 3+reflect.TypeOf(Msg{}).NumField()-4; got != want {
		t.Fatalf("the test sets %d integers; Msg has %d (update it)", got, want)
	}
	for _, typ := range msgTypes {
		for name := range ints(&Msg{}) {
			m := Msg{Type: typ}
			*ints(&m)[name] = 1 << 40
			if check(m) {
				t.Errorf("pack accepted %s = 1<<40 on %q", name, typ)
			}
			*ints(&m)[name] = 2
			if check(m) {
				kept++
			} else {
				refused++
			}
		}
	}
	// Ten integers on each of seven kinds; the vote leader rides on every
	// kind and the kinds carry 4+3+2+2+2+2+1 of the others.
	if want := 7 + 16; kept != want || refused != 70-want {
		t.Errorf("kept %d and refused %d single-field messages, want %d and %d", kept, refused, want, 70-want)
	}
	if check(Msg{Type: "notif", State: 256}) || check(Msg{Type: "notif", Vote: Vote{Leader: 1 << 15}}) {
		t.Error("pack accepted a server state or a leader id beyond its stored width")
	}
	if _, ok := pack(Msg{Type: "nope"}); ok {
		t.Error("pack accepted an unknown type")
	}
}

// TestCodecRejectsUnknownMessageKind: a kind code past the vocabulary is its
// own error, before any operand is looked at. The kind byte is where the
// encodings of a state holding an "ack" and one holding an "ackld" differ.
func TestCodecRejectsUnknownMessageKind(t *testing.T) {
	m := New(spec.Config{Name: "n2", Nodes: 2}, spec.Budget{}, bugdb.NoBugs())
	enc := func(typ string) []byte {
		s := newState(2)
		s.Send(0, 1, mustPack(Msg{Type: typ, Epoch: 1, Counter: 1}))
		return m.AppendState(nil, s)
	}
	bad, other := enc("ack"), enc("ackld")
	at := 0
	for bad[at] == other[at] {
		at++
	}
	bad[at] = byte(len(msgTypes))
	if _, _, err := m.DecodeState(bad); err == nil || !strings.Contains(err.Error(), "unknown message type code") {
		t.Fatalf("decode with kind code %d: %v, want the unknown message type code error", len(msgTypes), err)
	}
}
