package raftbase

import (
	"reflect"
	"strings"
	"testing"
)

// TestPackIsLossless: a message of each kind with every field its kind
// carries set comes back from the stored form field for field.
func TestPackIsLossless(t *testing.T) {
	for _, m := range []Msg{
		{Type: "rv", Term: 3, LastIndex: 4, LastTerm: 2, Pre: true},
		{Type: "rvr", Term: 3, Pre: true, Granted: true},
		{Type: "ae", Term: 3, PrevIndex: 4, PrevTerm: 2, Ents: EntryRange{Off: 4, N: 1}, Commit: 1, Retry: true},
		{Type: "aer", Term: 3, Flag: true, NextIndex: 5},
		{Type: "snap", Term: 3, SnapIndex: 4, SnapTerm: 2},
		{Type: "rv", Term: -1, LastIndex: 1<<31 - 1, LastTerm: -1 << 31},
	} {
		p, ok := pack(m)
		if !ok {
			t.Errorf("pack refuses %+v", m)
		} else if got := p.unpack(); !reflect.DeepEqual(got, m) {
			t.Errorf("stored %+v, loaded %+v", m, got)
		}
	}
}

// TestPackRefusesWhatItWouldAlter sets each field of Msg alone on a message
// of each kind: pack either keeps it or says it cannot, and mustPack panics on a
// message pack refuses — a handler that puts Commit on an "rv" fails loudly
// instead of having it dropped. An integer beyond 32 bits is always refused.
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
		newState(2, 0).Send(0, 1, mustPack(m))
		return false
	}
	rt := reflect.TypeOf(Msg{})
	for _, typ := range msgTypes {
		for f := 0; f < rt.NumField(); f++ {
			m := Msg{Type: typ}
			switch v := reflect.ValueOf(&m).Elem().Field(f); v.Kind() {
			case reflect.Bool:
				v.SetBool(true)
			case reflect.Int:
				v.SetInt(1 << 40)
				if check(m) {
					t.Errorf("pack accepted %s = 1<<40 on %q", rt.Field(f).Name, typ)
				}
				v.SetInt(7)
			default:
				continue
			}
			if check(m) {
				kept++
			} else {
				refused++
			}
		}
	}
	// 13 scalar fields on each of 5 kinds; the kinds carry 4+3+5+3+3 of them.
	if kept != 18 || refused != 5*13-18 {
		t.Errorf("kept %d and refused %d single-field messages, want 18 and %d", kept, refused, 5*13-18)
	}
	if _, ok := pack(Msg{Type: "nope"}); ok {
		t.Error("pack accepted an unknown type")
	}
}

// TestCodecRejectsUnknownMessageKind: a kind code past the vocabulary is its
// own error, before any operand is looked at. The kind byte is where the
// encodings of a state holding an "rv" and one holding an "rvr" differ.
func TestCodecRejectsUnknownMessageKind(t *testing.T) {
	m := codecMachines()["gosyncobj"]
	enc := func(msg Msg) []byte {
		s := m.Init()[0].(*State).copyTo(nil)
		s.Send(0, 1, mustPack(msg))
		return m.AppendState(nil, s)
	}
	bad, other := enc(Msg{Type: "rv", Term: 1}), enc(Msg{Type: "rvr", Term: 1})
	at := 0
	for bad[at] == other[at] {
		at++
	}
	bad[at] = byte(len(msgTypes))
	if _, _, err := m.DecodeState(bad); err == nil || !strings.Contains(err.Error(), "unknown message type code") {
		t.Fatalf("decode with kind code %d: %v, want the unknown message type code error", len(msgTypes), err)
	}
}
