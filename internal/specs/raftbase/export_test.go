package raftbase

import (
	"fmt"
	"reflect"

	"github.com/sandtable-go/sandtable/internal/spec"
)

// CheckStoredMessages reports the first queued message of st that does not
// survive its stored form: unpacking it and packing the result must be
// accepted and give the same stored message back.
func CheckStoredMessages(st spec.State) error {
	s := st.(*State)
	for i := 0; i < s.n; i++ {
		for j := 0; j < s.n; j++ {
			q := s.Queue(i, j)
			for k := range q {
				m := q[k].unpack()
				if p, ok := pack(m); !ok || !reflect.DeepEqual(p, q[k]) {
					return fmt.Errorf("message %d of channel %d->%d: stored %+v loads as %+v, which packs to %+v (ok=%v)", k, i, j, q[k], m, p, ok)
				}
			}
		}
	}
	return nil
}

// Role returns node i's role in st.
func Role(st spec.State, i int) int { return st.(*State).role(i) }
