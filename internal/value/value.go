// Package value defines the typed data values that WebdamLog facts carry,
// and tuples (ordered sequences of values) as stored in relations.
//
// Values are small immutable scalars: strings, 64-bit integers, 64-bit
// floats, booleans and binary blobs (used for picture payloads in the Wepic
// application). The package provides total ordering, hashing, and a compact
// binary codec used by the wire protocol and the write-ahead log.
package value

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The possible kinds of a Value.
const (
	KindString Kind = iota
	KindInt
	KindFloat
	KindBool
	KindBlob
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	case KindBlob:
		return "blob"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a single immutable WebdamLog data value. The zero Value is the
// empty string. Fields are exported, but callers should treat values as
// immutable and construct them with Str, Int, Float, Bool and Blob, which
// leave the other kinds' fields zero: Encode writes only the kind's own
// payload.
type Value struct {
	K Kind
	S string // payload for KindString and KindBlob
	I int64
	F float64
	B bool
}

// Str returns a string value.
func Str(s string) Value { return Value{K: KindString, S: s} }

// Int returns an integer value.
func Int(i int64) Value { return Value{K: KindInt, I: i} }

// Float returns a float value.
func Float(f float64) Value { return Value{K: KindFloat, F: f} }

// Bool returns a boolean value.
func Bool(b bool) Value { return Value{K: KindBool, B: b} }

// Blob returns a binary value. The bytes are copied.
func Blob(b []byte) Value { return Value{K: KindBlob, S: string(b)} }

// Kind reports the dynamic type of v.
func (v Value) Kind() Kind { return v.K }

// StringVal returns the string payload (valid for KindString).
func (v Value) StringVal() string { return v.S }

// IntVal returns the integer payload (valid for KindInt).
func (v Value) IntVal() int64 { return v.I }

// FloatVal returns the float payload (valid for KindFloat).
func (v Value) FloatVal() float64 { return v.F }

// BoolVal returns the boolean payload (valid for KindBool).
func (v Value) BoolVal() bool { return v.B }

// BlobVal returns a copy of the binary payload (valid for KindBlob).
func (v Value) BlobVal() []byte { return []byte(v.S) }

// IsZero reports whether v is the zero value (the empty string).
func (v Value) IsZero() bool { return v == Value{} }

// Equal reports whether two values are identical in kind and payload.
func (v Value) Equal(w Value) bool {
	if v.K != w.K {
		return false
	}
	switch v.K {
	case KindString, KindBlob:
		return v.S == w.S
	case KindInt:
		return v.I == w.I
	case KindFloat:
		return v.F == w.F || (math.IsNaN(v.F) && math.IsNaN(w.F))
	case KindBool:
		return v.B == w.B
	}
	return false
}

// Compare imposes a total order over values: first by kind, then by payload.
// It returns -1, 0 or +1.
func (v Value) Compare(w Value) int {
	if v.K != w.K {
		if v.K < w.K {
			return -1
		}
		return 1
	}
	switch v.K {
	case KindString, KindBlob:
		return strings.Compare(v.S, w.S)
	case KindInt:
		switch {
		case v.I < w.I:
			return -1
		case v.I > w.I:
			return 1
		}
		return 0
	case KindFloat:
		vf, wf := v.F, w.F
		vn, wn := math.IsNaN(vf), math.IsNaN(wf)
		switch {
		case vn && wn:
			return 0
		case vn:
			return -1
		case wn:
			return 1
		case vf < wf:
			return -1
		case vf > wf:
			return 1
		}
		return 0
	case KindBool:
		switch {
		case !v.B && w.B:
			return -1
		case v.B && !w.B:
			return 1
		}
		return 0
	}
	return 0
}

// String renders the value for display: strings unquoted, blobs summarized.
func (v Value) String() string {
	switch v.K {
	case KindString:
		return v.S
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.B)
	case KindBlob:
		if len(v.S) <= 8 {
			return fmt.Sprintf("0x%x", v.S)
		}
		return fmt.Sprintf("blob(%dB)", len(v.S))
	}
	return "?"
}

// Literal renders the value in WebdamLog concrete syntax so that parsing the
// result yields the value back (strings quoted with escapes, blobs hex).
func (v Value) Literal() string {
	switch v.K {
	case KindString:
		return strconv.Quote(v.S)
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		s := strconv.FormatFloat(v.F, 'g', -1, 64)
		// Force a float marker so the parser does not read it back as int.
		if !strings.ContainsAny(s, ".eE") && !strings.Contains(s, "Inf") && !strings.Contains(s, "NaN") {
			s += ".0"
		}
		return s
	case KindBool:
		return strconv.FormatBool(v.B)
	case KindBlob:
		return fmt.Sprintf("0x%x", v.S)
	}
	return "?"
}

// Hash returns a 64-bit FNV-1a hash of the value.
func (v Value) Hash() uint64 {
	h := fnv.New64a()
	var buf [9]byte
	buf[0] = byte(v.K)
	switch v.K {
	case KindString, KindBlob:
		h.Write(buf[:1])
		h.Write([]byte(v.S))
	case KindInt:
		binary.LittleEndian.PutUint64(buf[1:], uint64(v.I))
		h.Write(buf[:])
	case KindFloat:
		binary.LittleEndian.PutUint64(buf[1:], math.Float64bits(v.F))
		h.Write(buf[:])
	case KindBool:
		if v.B {
			buf[1] = 1
		}
		h.Write(buf[:2])
	}
	return h.Sum64()
}

// AppendKey appends a canonical, order-insensitive byte encoding of v to dst.
// Distinct values have distinct encodings, making it usable as a map key.
func (v Value) AppendKey(dst []byte) []byte {
	dst = append(dst, byte(v.K))
	switch v.K {
	case KindString, KindBlob:
		var lenBuf [8]byte
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(v.S)))
		dst = append(dst, lenBuf[:]...)
		dst = append(dst, v.S...)
	case KindInt:
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(v.I))
		dst = append(dst, buf[:]...)
	case KindFloat:
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.F))
		dst = append(dst, buf[:]...)
	case KindBool:
		if v.B {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

// Key returns the canonical byte encoding of v as a string (usable as a map key).
func (v Value) Key() string { return string(v.AppendKey(nil)) }

// Encode appends the wire encoding of v to dst. Decode reverses it.
func (v Value) Encode(dst []byte) []byte { return v.AppendKey(dst) }

// ErrCorrupt reports a malformed value or tuple encoding.
var ErrCorrupt = errors.New("value: corrupt encoding")

// Decode reads one value from b, returning the value and the remaining bytes.
func Decode(b []byte) (Value, []byte, error) {
	if len(b) < 1 {
		return Value{}, nil, ErrCorrupt
	}
	k := Kind(b[0])
	b = b[1:]
	switch k {
	case KindString, KindBlob:
		if len(b) < 8 {
			return Value{}, nil, ErrCorrupt
		}
		n := binary.LittleEndian.Uint64(b[:8])
		b = b[8:]
		if uint64(len(b)) < n {
			return Value{}, nil, ErrCorrupt
		}
		return Value{K: k, S: string(b[:n])}, b[n:], nil
	case KindInt:
		if len(b) < 8 {
			return Value{}, nil, ErrCorrupt
		}
		return Value{K: k, I: int64(binary.LittleEndian.Uint64(b[:8]))}, b[8:], nil
	case KindFloat:
		if len(b) < 8 {
			return Value{}, nil, ErrCorrupt
		}
		return Value{K: k, F: math.Float64frombits(binary.LittleEndian.Uint64(b[:8]))}, b[8:], nil
	case KindBool:
		if len(b) < 1 || b[0] > 1 { // only 0 and 1: one encoding per value
			return Value{}, nil, ErrCorrupt
		}
		return Value{K: k, B: b[0] == 1}, b[1:], nil
	default:
		return Value{}, nil, ErrCorrupt
	}
}

// Tuple is an ordered sequence of values — one stored fact's arguments.
type Tuple []Value

// NewTuple builds a tuple from its arguments.
func NewTuple(vs ...Value) Tuple { return Tuple(vs) }

// Clone returns a copy of the tuple (values themselves are immutable).
func (t Tuple) Clone() Tuple {
	if t == nil {
		return nil
	}
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Equal reports element-wise equality.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if !t[i].Equal(u[i]) {
			return false
		}
	}
	return true
}

// Compare orders tuples lexicographically (shorter tuples first on ties).
func (t Tuple) Compare(u Tuple) int {
	n := len(t)
	if len(u) < n {
		n = len(u)
	}
	for i := 0; i < n; i++ {
		if c := t[i].Compare(u[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(t) < len(u):
		return -1
	case len(t) > len(u):
		return 1
	}
	return 0
}

// Key returns a canonical byte-string encoding of the whole tuple, suitable
// for use as a map key. Distinct tuples have distinct keys.
func (t Tuple) Key() string {
	var dst []byte
	for _, v := range t {
		dst = v.AppendKey(dst)
	}
	return string(dst)
}

// DecodeKey reverses Tuple.Key: it parses the canonical key encoding back
// into the tuple it was built from. Together with Key it makes the canonical
// encoding a full codec, so a tuple held as its compact interned key (the
// store's interned representation) can always be reconstituted.
func DecodeKey(key string) (Tuple, error) {
	b := []byte(key)
	var t Tuple
	for len(b) > 0 {
		v, rest, err := Decode(b)
		if err != nil {
			return nil, err
		}
		t = append(t, v)
		b = rest
	}
	return t, nil
}

// Hash returns a 64-bit hash of the tuple.
func (t Tuple) Hash() uint64 {
	h := fnv.New64a()
	var buf []byte
	for _, v := range t {
		buf = v.AppendKey(buf[:0])
		h.Write(buf)
	}
	return h.Sum64()
}

// String renders the tuple as "(v1, v2, ...)".
func (t Tuple) String() string {
	var sb strings.Builder
	sb.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(v.String())
	}
	sb.WriteByte(')')
	return sb.String()
}

// Encode appends the wire encoding of the tuple (length-prefixed) to dst.
func (t Tuple) Encode(dst []byte) []byte {
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(t)))
	dst = append(dst, lenBuf[:]...)
	for _, v := range t {
		dst = v.Encode(dst)
	}
	return dst
}

// DecodeTuple reads one tuple from b, returning the tuple and remaining bytes.
func DecodeTuple(b []byte) (Tuple, []byte, error) {
	if len(b) < 4 {
		return nil, nil, ErrCorrupt
	}
	n := binary.LittleEndian.Uint32(b[:4])
	b = b[4:]
	if n > uint32(len(b)) { // each value takes at least 1 byte
		return nil, nil, ErrCorrupt
	}
	t := make(Tuple, 0, n)
	var v Value
	var err error
	for i := uint32(0); i < n; i++ {
		v, b, err = Decode(b)
		if err != nil {
			return nil, nil, err
		}
		t = append(t, v)
	}
	return t, b, nil
}

// SortTuples sorts a slice of tuples in place in lexicographic order.
// Useful for deterministic test output and display.
func SortTuples(ts []Tuple) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
}
