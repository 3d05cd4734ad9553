package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/ast"
	"repro/internal/value"
)

// Wire format. A frame (Encode) is the format byte followed by an envelope;
// a bare payload (EncodePayload, the outbox log's unit) is the format byte
// followed by a payload.
//
//	envelope := string From, string To, uvarint Seq, payload
//	payload  := tag byte, then the fields of that message type in
//	            declaration order
//	string   := uvarint length, bytes
//	count    := uvarint, checked against the bytes left before allocating
//	fact     := string Rel, string Peer, value.Tuple encoding, pos
//	pos      := varint Line, varint Col
//
// Counters (sequence numbers, counts, tokens) are uvarints; stream epochs,
// hashes and hash-range bounds, which are random or uniformly spread over
// 64 bits, are fixed 8-byte little-endian, so a message's size does not
// depend on the epoch its stream happened to draw. Maps are
// written in sorted key order, so equal messages encode to equal bytes, and
// the decoder accepts exactly one encoding per message: minimal varints,
// strictly increasing map keys, flag bytes with no unknown bits, no
// trailing bytes. Every length and count is validated before anything is
// allocated, so a hostile frame costs at most a constant factor of its own
// size, and nesting is bounded (DataMsg wraps no DataMsg or MuxFrame,
// MuxFrame wraps no MuxFrame), so decoding never recurses deeply.
//
// The codec keeps no state between messages: every frame is
// self-describing and carries no type descriptors.

// formatV1 leads every encoding. A gob stream starts with a uvarint message
// length, whose first byte is below 0x80 or at least 0xF8, so bytes written
// by the earlier gob codec are recognized and refused (ErrFormat).
const formatV1 byte = 0xB1

// Payload tags. Zero is a nil payload.
const (
	tagNil byte = iota
	tagFacts
	tagDelegation
	tagControl
	tagData
	tagAck
	tagDigest
	tagResyncRequest
	tagSnapshot
	tagMuxFrame
	tagRangeDigestRequest
	tagRangeDigest
	tagRangeRepairRequest
	tagRangeRepair
)

// Nesting restrictions, passed down while encoding or decoding a payload.
const (
	noData = 1 << iota // a DataMsg here would be nested in a DataMsg
	noMux              // a MuxFrame here would be nested in a MuxFrame
)

// ErrFormat reports bytes that do not start with this codec's format byte —
// in particular, outbox log entries written by an older, gob-based codec.
var ErrFormat = errors.New("protocol: unsupported payload format")

// ErrCorrupt reports a malformed encoding: truncated, trailing bytes, an
// unknown tag or flag, a non-canonical varint or map order, or forbidden
// nesting.
var ErrCorrupt = errors.New("protocol: corrupt encoding")

// Encode serializes an envelope into a new frame.
func Encode(env Envelope) ([]byte, error) {
	return AppendEnvelope(make([]byte, 0, 128), env) // room for a small frame
}

// AppendEnvelope appends the frame encoding of env to dst and returns the
// extended slice; on error dst is returned unextended in length.
func AppendEnvelope(dst []byte, env Envelope) ([]byte, error) {
	out, err := appendEnvelope(append(dst, formatV1), env, 0)
	if err != nil {
		return dst, fmt.Errorf("protocol: encoding envelope: %w", err)
	}
	return out, nil
}

// DecodeEnvelope deserializes a frame produced by Encode or AppendEnvelope.
// The decoded envelope shares no memory with b.
func DecodeEnvelope(b []byte) (Envelope, error) {
	d, err := newDecoder(b)
	if err != nil {
		return Envelope{}, fmt.Errorf("decoding envelope: %w", err)
	}
	env := d.envelope(0)
	if err := d.finish(); err != nil {
		return Envelope{}, fmt.Errorf("decoding envelope: %w", err)
	}
	return env, nil
}

// EncodePayload serializes a bare payload (outbox persistence).
func EncodePayload(p Payload) ([]byte, error) {
	out, err := appendPayload([]byte{formatV1}, p, 0)
	if err != nil {
		return nil, fmt.Errorf("protocol: encoding payload: %w", err)
	}
	return out, nil
}

// DecodePayload deserializes a payload produced by EncodePayload.
func DecodePayload(b []byte) (Payload, error) {
	d, err := newDecoder(b)
	if err != nil {
		return nil, fmt.Errorf("decoding payload: %w", err)
	}
	p := d.payload(0)
	if err := d.finish(); err != nil {
		return nil, fmt.Errorf("decoding payload: %w", err)
	}
	return p, nil
}

// --- encoding ---

func appendEnvelope(dst []byte, env Envelope, nest int) ([]byte, error) {
	dst = appendString(dst, env.From)
	dst = appendString(dst, env.To)
	dst = binary.AppendUvarint(dst, env.Seq)
	return appendPayload(dst, env.Msg, nest)
}

func appendPayload(dst []byte, p Payload, nest int) ([]byte, error) {
	switch m := p.(type) {
	case nil:
		dst = append(dst, tagNil)
	case FactsMsg:
		dst = appendOps(append(dst, tagFacts), m.Ops)
	case DelegationMsg:
		dst = appendString(append(dst, tagDelegation), m.RuleID)
		dst = binary.AppendUvarint(dst, uint64(len(m.Rules)))
		for _, r := range m.Rules {
			dst = appendRule(dst, r)
		}
	case ControlMsg:
		dst = append(dst, tagControl, byte(m.Kind))
		dst = binary.AppendUvarint(dst, m.Token)
	case DataMsg:
		if nest&noData != 0 {
			return dst, errors.New("DataMsg nested in a DataMsg")
		}
		dst = binary.LittleEndian.AppendUint64(append(dst, tagData), m.Epoch)
		dst = binary.AppendUvarint(dst, m.Seq)
		return appendPayload(dst, m.Msg, noData|noMux)
	case AckMsg:
		dst = binary.LittleEndian.AppendUint64(append(dst, tagAck), m.Epoch)
		dst = binary.AppendUvarint(dst, m.Seq)
	case DigestMsg:
		dst = binary.LittleEndian.AppendUint64(append(dst, tagDigest), m.Epoch)
		dst = binary.AppendUvarint(dst, m.AsOfSeq)
		dst = binary.AppendUvarint(dst, uint64(len(m.Rels)))
		for _, k := range sortedKeys(m.Rels) {
			dst = appendString(dst, k)
			dst = binary.LittleEndian.AppendUint64(dst, m.Rels[k].Hash)
			dst = binary.AppendUvarint(dst, m.Rels[k].Count)
		}
		dst = binary.AppendUvarint(dst, uint64(len(m.Deleg)))
		for _, k := range sortedKeys(m.Deleg) {
			dst = appendString(dst, k)
			dst = binary.LittleEndian.AppendUint64(dst, m.Deleg[k])
		}
	case ResyncRequestMsg:
		dst = append(dst, tagResyncRequest, flags(m.Reset, m.Advert))
	case SnapshotMsg:
		dst = appendOps(append(dst, tagSnapshot, flags(m.More)), m.Ops)
	case MuxFrame:
		if nest&noMux != 0 {
			return dst, errors.New("MuxFrame nested in a MuxFrame")
		}
		return appendEnvelope(append(dst, tagMuxFrame), m.Env, nest|noMux)
	case RangeDigestRequestMsg:
		dst = appendString(append(dst, tagRangeDigestRequest), m.RelID)
		dst = appendRanges(dst, m.Ranges)
	case RangeDigestMsg:
		dst = binary.LittleEndian.AppendUint64(append(dst, tagRangeDigest), m.Epoch)
		dst = binary.AppendUvarint(dst, m.AsOfSeq)
		dst = appendString(dst, m.RelID)
		dst = binary.AppendUvarint(dst, uint64(len(m.Ranges)))
		for _, r := range m.Ranges {
			dst = binary.LittleEndian.AppendUint64(dst, r.Lo)
			dst = binary.LittleEndian.AppendUint64(dst, r.Hi)
			dst = binary.LittleEndian.AppendUint64(dst, r.Hash)
			dst = binary.AppendUvarint(dst, r.Count)
		}
	case RangeRepairRequestMsg:
		dst = appendString(append(dst, tagRangeRepairRequest), m.RelID)
		dst = appendRanges(dst, m.Ranges)
	case RangeRepairMsg:
		dst = appendString(append(dst, tagRangeRepair), m.RelID)
		dst = appendOps(appendRanges(dst, m.Ranges), m.Ops)
	default:
		return dst, fmt.Errorf("cannot encode payload type %T", p)
	}
	return dst, nil
}

// flags packs booleans into one byte, the first argument in bit 0.
func flags(bs ...bool) byte {
	var f byte
	for i, b := range bs {
		if b {
			f |= 1 << i
		}
	}
	return f
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func appendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

func appendPos(dst []byte, p ast.Pos) []byte {
	return binary.AppendVarint(binary.AppendVarint(dst, int64(p.Line)), int64(p.Col))
}

func appendOps(dst []byte, ops []FactDelta) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ops)))
	for _, op := range ops {
		dst = appendString(append(dst, flags(op.Delete, op.Maint)), op.Fact.Rel)
		dst = appendString(dst, op.Fact.Peer)
		dst = appendPos(op.Fact.Args.Encode(dst), op.Fact.Pos)
	}
	return dst
}

func appendRanges(dst []byte, rs []HashRange) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(rs)))
	for _, r := range rs {
		dst = binary.LittleEndian.AppendUint64(dst, r.Lo)
		dst = binary.LittleEndian.AppendUint64(dst, r.Hi)
	}
	return dst
}

func appendTerm(dst []byte, t ast.Term) []byte {
	dst = appendString(dst, t.Var)
	dst = t.Val.Encode(dst)
	return appendPos(dst, t.Pos)
}

func appendAtom(dst []byte, a ast.Atom) []byte {
	dst = append(dst, flags(a.Neg))
	dst = appendTerm(dst, a.Rel)
	dst = appendTerm(dst, a.Peer)
	dst = binary.AppendUvarint(dst, uint64(len(a.Args)))
	for _, t := range a.Args {
		dst = appendTerm(dst, t)
	}
	return appendPos(dst, a.Pos)
}

func appendRule(dst []byte, r ast.Rule) []byte {
	dst = appendString(dst, r.ID)
	dst = appendString(dst, r.Origin)
	dst = append(dst, byte(r.Op))
	dst = appendAtom(dst, r.Head)
	dst = binary.AppendUvarint(dst, uint64(len(r.Body)))
	for _, a := range r.Body {
		dst = appendAtom(dst, a)
	}
	return appendPos(dst, r.Pos)
}

// --- decoding ---

// Minimum encoded sizes of repeated elements, which bound every count
// against the bytes left before the elements are allocated.
const (
	minOp          = 1 + 1 + 1 + 4 + 2 // flags, Rel, Peer, tuple arity, Pos
	minTerm        = 1 + 2 + 2         // Var, shortest value (bool), Pos
	minAtom        = 1 + 2*minTerm + 1 + 2
	minRule        = 1 + 1 + 1 + minAtom + 1 + 2
	minRange       = 16
	minRangeDigest = 16 + 8 + 1
	minRelDigest   = 1 + 8 + 1
	minDeleg       = 1 + 8
)

// decoder reads one encoding. The first error sticks: later reads return
// zero values, and finish reports it.
type decoder struct {
	b   []byte
	err error
}

// newDecoder checks the format byte and returns a decoder over the rest.
func newDecoder(b []byte) (decoder, error) {
	if len(b) == 0 {
		return decoder{}, fmt.Errorf("%w: empty input", ErrCorrupt)
	}
	if b[0] != formatV1 {
		return decoder{}, fmt.Errorf("%w: leading byte 0x%02x, want 0x%02x (bytes written by the earlier gob codec are not readable)",
			ErrFormat, b[0], formatV1)
	}
	return decoder{b: b[1:]}, nil
}

func (d *decoder) finish() error {
	if d.err == nil && len(d.b) > 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	return d.err
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	}
	d.b = nil
}

func (d *decoder) u8() byte {
	if len(d.b) == 0 {
		d.fail("truncated")
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

// flags reads a flag byte with n defined bits.
func (d *decoder) flags(n uint) byte {
	f := d.u8()
	if f>>n != 0 {
		d.fail("flag byte 0x%02x has undefined bits", f)
	}
	return f
}

func (d *decoder) uvarint() uint64 {
	x, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("truncated or overlong varint")
		return 0
	}
	if n > 1 && d.b[n-1] == 0 {
		d.fail("non-minimal varint")
		return 0
	}
	d.b = d.b[n:]
	return x
}

func (d *decoder) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (d *decoder) fixed64() uint64 {
	if len(d.b) < 8 {
		d.fail("truncated")
		return 0
	}
	x := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return x
}

// count reads an element count and checks that the bytes left could hold
// that many elements of at least size bytes each.
func (d *decoder) count(size int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/size) {
		d.fail("count %d exceeds the %d bytes left", n, len(d.b))
		return 0
	}
	return int(n)
}

func (d *decoder) str() string { return d.strOr("") }

// strOr reads a string, returning prev rather than a fresh copy when they
// are equal: the facts of a batch repeat their relation and peer names.
func (d *decoder) strOr(prev string) string {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.fail("string of %d bytes exceeds the %d bytes left", n, len(d.b))
		return ""
	}
	s := prev
	if string(d.b[:n]) != prev {
		s = string(d.b[:n])
	}
	d.b = d.b[n:]
	return s
}

func (d *decoder) pos() ast.Pos {
	return ast.Pos{Line: int(d.varint()), Col: int(d.varint())}
}

func (d *decoder) value() value.Value {
	v, rest, err := value.Decode(d.b)
	if err != nil {
		d.fail("value: %v", err)
		return value.Value{}
	}
	d.b = rest
	return v
}

func (d *decoder) tuple() value.Tuple {
	t, rest, err := value.DecodeTuple(d.b)
	if err != nil {
		d.fail("tuple: %v", err)
		return nil
	}
	d.b = rest
	if len(t) == 0 {
		return nil
	}
	return t
}

func (d *decoder) envelope(nest int) Envelope {
	var env Envelope
	env.From = d.str()
	env.To = d.str()
	env.Seq = d.uvarint()
	env.Msg = d.payload(nest)
	return env
}

func (d *decoder) payload(nest int) Payload {
	tag := d.u8()
	if d.err != nil {
		return nil
	}
	switch tag {
	case tagNil:
		return nil
	case tagFacts:
		return FactsMsg{Ops: d.ops()}
	case tagDelegation:
		m := DelegationMsg{RuleID: d.str()}
		if n := d.count(minRule); n > 0 {
			m.Rules = make([]ast.Rule, n)
			for i := range m.Rules {
				m.Rules[i] = d.rule()
			}
		}
		return m
	case tagControl:
		return ControlMsg{Kind: ControlKind(d.u8()), Token: d.uvarint()}
	case tagData:
		if nest&noData != 0 {
			d.fail("DataMsg nested in a DataMsg")
			return nil
		}
		m := DataMsg{Epoch: d.fixed64(), Seq: d.uvarint()}
		m.Msg = d.payload(noData | noMux)
		return m
	case tagAck:
		return AckMsg{Epoch: d.fixed64(), Seq: d.uvarint()}
	case tagDigest:
		return d.digest()
	case tagResyncRequest:
		f := d.flags(2)
		return ResyncRequestMsg{Reset: f&1 != 0, Advert: f&2 != 0}
	case tagSnapshot:
		more := d.flags(1) != 0
		return SnapshotMsg{More: more, Ops: d.ops()}
	case tagMuxFrame:
		if nest&noMux != 0 {
			d.fail("MuxFrame nested in a MuxFrame")
			return nil
		}
		return MuxFrame{Env: d.envelope(nest | noMux)}
	case tagRangeDigestRequest:
		return RangeDigestRequestMsg{RelID: d.str(), Ranges: d.ranges()}
	case tagRangeDigest:
		m := RangeDigestMsg{Epoch: d.fixed64(), AsOfSeq: d.uvarint(), RelID: d.str()}
		if n := d.count(minRangeDigest); n > 0 {
			m.Ranges = make([]RangeDigest, n)
			for i := range m.Ranges {
				m.Ranges[i] = RangeDigest{Lo: d.fixed64(), Hi: d.fixed64(), Hash: d.fixed64(), Count: d.uvarint()}
			}
		}
		return m
	case tagRangeRepairRequest:
		return RangeRepairRequestMsg{RelID: d.str(), Ranges: d.ranges()}
	case tagRangeRepair:
		m := RangeRepairMsg{RelID: d.str(), Ranges: d.ranges()}
		m.Ops = d.ops()
		return m
	default:
		d.fail("unknown payload tag %d", tag)
		return nil
	}
}

func (d *decoder) digest() DigestMsg {
	m := DigestMsg{Epoch: d.fixed64(), AsOfSeq: d.uvarint()}
	if n := d.count(minRelDigest); n > 0 {
		m.Rels = make(map[string]RelDigest, n)
		prev := ""
		for i := 0; i < n && d.err == nil; i++ {
			k := d.sortedKey(i, prev)
			m.Rels[k] = RelDigest{Hash: d.fixed64(), Count: d.uvarint()}
			prev = k
		}
	}
	if n := d.count(minDeleg); n > 0 {
		m.Deleg = make(map[string]uint64, n)
		prev := ""
		for i := 0; i < n && d.err == nil; i++ {
			k := d.sortedKey(i, prev)
			m.Deleg[k] = d.fixed64()
			prev = k
		}
	}
	return m
}

// sortedKey reads the i-th map key, which must sort strictly after prev.
func (d *decoder) sortedKey(i int, prev string) string {
	k := d.str()
	if i > 0 && k <= prev {
		d.fail("map key %q out of order", k)
	}
	return k
}

func (d *decoder) ops() []FactDelta {
	n := d.count(minOp)
	if n == 0 {
		return nil
	}
	ops := make([]FactDelta, n)
	var rel, peer string
	for i := range ops {
		f := d.flags(2)
		rel, peer = d.strOr(rel), d.strOr(peer)
		ops[i] = FactDelta{Delete: f&1 != 0, Maint: f&2 != 0,
			Fact: ast.Fact{Rel: rel, Peer: peer, Args: d.tuple(), Pos: d.pos()}}
	}
	return ops
}

func (d *decoder) ranges() []HashRange {
	n := d.count(minRange)
	if n == 0 {
		return nil
	}
	rs := make([]HashRange, n)
	for i := range rs {
		rs[i] = HashRange{Lo: d.fixed64(), Hi: d.fixed64()}
	}
	return rs
}

func (d *decoder) term() ast.Term {
	return ast.Term{Var: d.str(), Val: d.value(), Pos: d.pos()}
}

func (d *decoder) atom() ast.Atom {
	a := ast.Atom{Neg: d.flags(1) != 0, Rel: d.term(), Peer: d.term()}
	if n := d.count(minTerm); n > 0 {
		a.Args = make([]ast.Term, n)
		for i := range a.Args {
			a.Args[i] = d.term()
		}
	}
	a.Pos = d.pos()
	return a
}

func (d *decoder) rule() ast.Rule {
	r := ast.Rule{ID: d.str(), Origin: d.str(), Op: ast.UpdateOp(d.u8()), Head: d.atom()}
	if n := d.count(minAtom); n > 0 {
		r.Body = make([]ast.Atom, n)
		for i := range r.Body {
			r.Body[i] = d.atom()
		}
	}
	r.Pos = d.pos()
	return r
}
