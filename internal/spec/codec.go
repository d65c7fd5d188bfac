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
	v, n := binary.Varint(d.Src)
	if n <= 0 {
		d.Failf("truncated %s", what)
		return 0
	}
	d.Src = d.Src[n:]
	return int(v)
}

// Uvarint reads one unsigned varint.
func (d *Decoder) Uvarint(what string) uint64 {
	if d.Err != nil {
		return 0
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

// Bool reads one byte as a boolean (non-zero is true).
func (d *Decoder) Bool(what string) bool { return d.Byte(what) != 0 }

// Str reads a length-prefixed string.
func (d *Decoder) Str(what string) string {
	n := d.Len(what)
	s := string(d.Src[:n])
	d.Src = d.Src[n:]
	return s
}

// AppendTo appends the counters' encoding (one varint per field, in Hash
// order) to dst; Decode reads it back.
func (c *Counters) AppendTo(dst []byte) []byte {
	for _, v := range [...]int{
		c.Timeouts, c.Crashes, c.Restarts, c.Requests, c.Partitions,
		c.Drops, c.Duplicates, c.Compactions, c.DirtyCrashes,
	} {
		dst = binary.AppendVarint(dst, int64(v))
	}
	return dst
}

// Decode reads the encoding AppendTo wrote.
func (c *Counters) Decode(d *Decoder) {
	for _, p := range [...]*int{
		&c.Timeouts, &c.Crashes, &c.Restarts, &c.Requests, &c.Partitions,
		&c.Drops, &c.Duplicates, &c.Compactions, &c.DirtyCrashes,
	} {
		*p = d.Int("counters")
	}
}
