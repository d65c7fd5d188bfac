package spec

import (
	"encoding/binary"
	"fmt"
)

// Decoder walks one StateCodec encoding built from varints, single-byte
// bools, and length-prefixed strings — the vocabulary the in-tree spec
// families encode their states with. The first error sticks and every
// subsequent read returns a zero value, so DecodeState implementations stay
// linear and check Err once at the end. Encoded bytes come back from disk
// and from cluster peers, so every length is bounded by the bytes that
// remain before anything is allocated.
type Decoder struct {
	// Src is the undecoded remainder.
	Src []byte
	// Err is the first decoding error (nil while the input is well-formed).
	Err error
}

// Failf records a decoding error unless one is already pending.
func (d *Decoder) Failf(format string, args ...any) {
	if d.Err == nil {
		d.Err = fmt.Errorf("decode state: "+format, args...)
	}
}

// Int reads one signed varint; what names the field in the error.
func (d *Decoder) Int(what string) int {
	if d.Err != nil {
		return 0
	}
	if len(d.Src) > 0 && d.Src[0] < 0x80 { // one byte: the zigzag of -64..63
		b := int(d.Src[0])
		d.Src = d.Src[1:]
		return b>>1 ^ -(b & 1)
	}
	v, n := binary.Varint(d.Src)
	if n <= 0 {
		d.Failf("truncated %s", what)
		return 0
	}
	d.Src = d.Src[n:]
	return int(v)
}

// Int32 reads one signed varint into a field the state stores in 32 bits. A
// value that does not fit is an error: narrowing it would decode hostile
// bytes into a different, well-formed state.
func (d *Decoder) Int32(what string) int32 {
	v := d.Int(what)
	if int(int32(v)) != v {
		d.Failf("%s %d does not fit the 32 bits it is stored in", what, v)
		return 0
	}
	return int32(v)
}

// MaxInt bounds the magnitude of every term, index, round, epoch and counter
// a decoded state may hold. Handlers add one to such a value, or add two of
// them, and store the result in the 32 bits a queued message holds: a value
// past MaxInt could overflow there, and no reachable state comes near it.
const MaxInt = 1<<30 - 1

// Bounded reads one signed varint whose magnitude must not exceed MaxInt.
func (d *Decoder) Bounded(what string) int {
	v := d.Int(what)
	if v < -MaxInt || v > MaxInt {
		d.Failf("%s %d is beyond ±%d", what, v, MaxInt)
		return 0
	}
	return v
}

// Uvarint reads one unsigned varint.
func (d *Decoder) Uvarint(what string) uint64 {
	if d.Err != nil {
		return 0
	}
	if len(d.Src) > 0 && d.Src[0] < 0x80 {
		v := uint64(d.Src[0])
		d.Src = d.Src[1:]
		return v
	}
	v, n := binary.Uvarint(d.Src)
	if n <= 0 {
		d.Failf("truncated %s", what)
		return 0
	}
	d.Src = d.Src[n:]
	return v
}

// Len reads an element count and rejects one the remaining input cannot
// hold (every element occupies at least one byte), so callers may size a
// slice from it.
func (d *Decoder) Len(what string) int {
	n := d.Uvarint(what)
	if d.Err == nil && n > uint64(len(d.Src)) {
		d.Failf("truncated %s", what)
	}
	if d.Err != nil {
		return 0
	}
	return int(n)
}

// Node reads a varint that names a node of an n-node cluster: an id below n,
// or a negative absence marker. Symmetry reduction indexes permutations by
// such values, so one out of range must not reach a decoded state.
func (d *Decoder) Node(what string, n int) int {
	id := d.Int(what)
	if id >= n {
		d.Failf("%s names node %d of %d", what, id, n)
		return 0
	}
	return id
}

// Row reads the marker of a nil-able row the machine keeps exactly n long
// (0 for nil, n+1 otherwise) and reports whether n elements follow. Any other
// length is an error: hashing and permutation index such rows by node id.
func (d *Decoder) Row(what string, n int) bool {
	code := d.Uvarint(what)
	if d.Err == nil && code != 0 && code != uint64(n)+1 {
		d.Failf("%s row of length %d, want %d", what, code-1, n)
	}
	return d.Err == nil && code != 0
}

// AppendBool appends b as the one byte Bool reads back.
func AppendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendStr appends s length-prefixed, as Str reads it back.
func AppendStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendNodeSetRow appends s the way the nil-able row of n booleans it stands
// in for was encoded (see NodeSet.RowLen): a 0 marker for the empty set, else
// n+1 and one boolean byte per node.
func AppendNodeSetRow(dst []byte, s NodeSet, n int) []byte {
	if s == 0 {
		return append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(n)+1)
	for j := 0; j < n; j++ {
		dst = AppendBool(dst, s.Has(j))
	}
	return dst
}

// NodeSetRow reads what AppendNodeSetRow wrote for a set that, when it has a
// member at all, has node self (a candidate's own vote, a leader synced with
// itself). A row without self is refused: as a set it would be empty or
// partial, which the state reads as no row or cannot tell from one.
func (d *Decoder) NodeSetRow(what string, n, self int) NodeSet {
	if !d.Row(what, n) {
		return 0
	}
	var s NodeSet
	for j := 0; j < n; j++ {
		if d.Bool(what) {
			s.Add(j)
		}
	}
	if d.Err == nil && !s.Has(self) {
		d.Failf("%s row of node %d lacks the node itself", what, self)
	}
	return s
}

// Byte reads one raw byte.
func (d *Decoder) Byte(what string) byte {
	if d.Err != nil {
		return 0
	}
	if len(d.Src) == 0 {
		d.Failf("truncated %s", what)
		return 0
	}
	b := d.Src[0]
	d.Src = d.Src[1:]
	return b
}

// Bool reads one byte as a boolean: 0 or 1, as encoders write it. Any other
// byte is an error rather than a second spelling of true, so that a decoded
// state encodes back to the bytes it came from.
func (d *Decoder) Bool(what string) bool {
	b := d.Byte(what)
	if b > 1 {
		d.Failf("%s byte %#x is not a boolean", what, b)
	}
	return b == 1
}

// Str reads a length-prefixed string.
func (d *Decoder) Str(what string) string {
	n := d.Len(what)
	s := string(d.Src[:n])
	d.Src = d.Src[n:]
	return s
}

// fields lists the counters in Hash order, which is their encoding order.
func (c *Counters) fields() [9]*int32 {
	return [...]*int32{
		&c.Timeouts, &c.Crashes, &c.Restarts, &c.Requests, &c.Partitions,
		&c.Drops, &c.Duplicates, &c.Compactions, &c.DirtyCrashes,
	}
}

// AppendTo appends the counters' encoding (one varint per field, in Hash
// order) to dst; Decode reads it back.
func (c *Counters) AppendTo(dst []byte) []byte {
	for _, p := range c.fields() {
		dst = binary.AppendVarint(dst, int64(*p))
	}
	return dst
}

// Decode reads the encoding AppendTo wrote.
func (c *Counters) Decode(d *Decoder) {
	for _, p := range c.fields() {
		*p = d.Int32("counters")
	}
}
