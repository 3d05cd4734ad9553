package protocol

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/ast"
	"repro/internal/value"
)

// gob is the codec's test oracle: it round-trips any of these structs by
// reflection, so a hand-written field the binary codec forgets shows up as
// a difference.
func init() {
	gob.Register(FactsMsg{})
	gob.Register(DelegationMsg{})
	gob.Register(ControlMsg{})
	gob.Register(DataMsg{})
	gob.Register(AckMsg{})
	gob.Register(DigestMsg{})
	gob.Register(ResyncRequestMsg{})
	gob.Register(SnapshotMsg{})
	gob.Register(MuxFrame{})
	gob.Register(RangeDigestRequestMsg{})
	gob.Register(RangeDigestMsg{})
	gob.Register(RangeRepairRequestMsg{})
	gob.Register(RangeRepairMsg{})
}

func gobRoundTrip(t *testing.T, env Envelope) Envelope {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&env); err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	var out Envelope
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatalf("gob decode: %v", err)
	}
	return out
}

// sameMsg compares two decoded messages structurally, treating nil and
// empty slices and maps alike and NaN as equal to NaN. With exact set,
// floats must also agree bit for bit (the sign of zero); without it they
// compare with ==, since gob drops the sign of a negative zero.
func sameMsg(a, b reflect.Value, exact bool) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return a.Elem().Type() == b.Elem().Type() && sameMsg(a.Elem(), b.Elem(), exact)
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameMsg(a.Field(i), b.Field(i), exact) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameMsg(a.Index(i), b.Index(i), exact) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			bv := b.MapIndex(k)
			if !bv.IsValid() || !sameMsg(a.MapIndex(k), bv, exact) {
				return false
			}
		}
		return true
	case reflect.Float64:
		x, y := a.Float(), b.Float()
		if math.IsNaN(x) || math.IsNaN(y) {
			return math.IsNaN(x) && math.IsNaN(y)
		}
		if exact {
			return math.Float64bits(x) == math.Float64bits(y)
		}
		return x == y
	case reflect.String:
		return a.String() == b.String()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint8, reflect.Uint64:
		return a.Uint() == b.Uint()
	}
	panic(fmt.Sprintf("sameMsg: unhandled kind %s", a.Kind()))
}

// msgGen generates messages of every payload type with adversarial values.
type msgGen struct{ r *rand.Rand }

var edgeValues = []value.Value{
	value.Str(""), value.Str("x"), value.Str("nul\x00inside"), value.Str("ünï\xff"),
	value.Blob(nil), value.Blob([]byte{0, 0xFF, 0, 0xFF}), value.Blob([]byte{0xFF}),
	value.Int(0), value.Int(-1), value.Int(math.MinInt64), value.Int(math.MaxInt64),
	value.Float(0), value.Float(math.Copysign(0, -1)), value.Float(math.Inf(1)),
	value.Float(math.Inf(-1)), value.Float(math.NaN()), value.Float(-1.5e-300),
	value.Bool(true), value.Bool(false),
}

func (g msgGen) str() string {
	return []string{"", "a", "pictures", "r@b", "\x00\xff", "ünicode"}[g.r.Intn(6)]
}

func (g msgGen) u64() uint64 {
	switch g.r.Intn(4) {
	case 0:
		return 0
	case 1:
		return ^uint64(0)
	case 2:
		return uint64(g.r.Intn(300))
	}
	return g.r.Uint64()
}

func (g msgGen) pos() ast.Pos {
	if g.r.Intn(2) == 0 {
		return ast.Pos{}
	}
	return ast.Pos{Line: g.r.Intn(1000) + 1, Col: g.r.Intn(80) - 1}
}

func (g msgGen) value() value.Value { return edgeValues[g.r.Intn(len(edgeValues))] }

func (g msgGen) fact() ast.Fact {
	args := make(value.Tuple, g.r.Intn(4))
	for i := range args {
		args[i] = g.value()
	}
	return ast.Fact{Rel: g.str(), Peer: g.str(), Args: args, Pos: g.pos()}
}

func (g msgGen) ops() []FactDelta {
	ops := make([]FactDelta, g.r.Intn(4))
	for i := range ops {
		ops[i] = FactDelta{Delete: g.r.Intn(2) == 0, Maint: g.r.Intn(2) == 0, Fact: g.fact()}
	}
	return ops
}

func (g msgGen) term() ast.Term {
	if g.r.Intn(2) == 0 {
		return ast.Term{Var: g.str() + "v", Pos: g.pos()}
	}
	return ast.Term{Val: g.value(), Pos: g.pos()}
}

func (g msgGen) atom() ast.Atom {
	a := ast.Atom{Neg: g.r.Intn(3) == 0, Rel: g.term(), Peer: g.term(), Pos: g.pos()}
	for i := g.r.Intn(4); i > 0; i-- {
		a.Args = append(a.Args, g.term())
	}
	return a
}

func (g msgGen) rule() ast.Rule {
	r := ast.Rule{ID: g.str(), Origin: g.str(), Op: ast.UpdateOp(g.r.Intn(2)), Head: g.atom(), Pos: g.pos()}
	for i := g.r.Intn(3); i > 0; i-- {
		r.Body = append(r.Body, g.atom())
	}
	return r
}

func (g msgGen) ranges() []HashRange {
	rs := make([]HashRange, g.r.Intn(3))
	for i := range rs {
		rs[i] = HashRange{Lo: g.u64(), Hi: g.u64()}
	}
	return rs
}

// leaf returns a payload of type kind (0..10) that wraps no other payload.
func (g msgGen) leaf(kind int) Payload {
	switch kind {
	case 0:
		return FactsMsg{Ops: g.ops()}
	case 1:
		m := DelegationMsg{RuleID: g.str()}
		for i := g.r.Intn(4); i > 0; i-- { // zero rules: a withdrawal
			m.Rules = append(m.Rules, g.rule())
		}
		return m
	case 2:
		return ControlMsg{Kind: ControlKind(g.r.Intn(3)), Token: g.u64()}
	case 3:
		return AckMsg{Epoch: g.u64(), Seq: g.u64()}
	case 4:
		m := DigestMsg{Epoch: g.u64(), AsOfSeq: g.u64()}
		for i := g.r.Intn(4); i > 0; i-- {
			if m.Rels == nil {
				m.Rels = map[string]RelDigest{}
			}
			m.Rels[g.str()] = RelDigest{Hash: g.u64(), Count: g.u64()}
		}
		for i := g.r.Intn(4); i > 0; i-- {
			if m.Deleg == nil {
				m.Deleg = map[string]uint64{}
			}
			m.Deleg[g.str()] = g.u64()
		}
		return m
	case 5:
		return ResyncRequestMsg{Reset: g.r.Intn(2) == 0, Advert: g.r.Intn(2) == 0}
	case 6:
		return SnapshotMsg{Ops: g.ops(), More: g.r.Intn(2) == 0}
	case 7:
		return RangeDigestRequestMsg{RelID: g.str(), Ranges: g.ranges()}
	case 8:
		m := RangeDigestMsg{Epoch: g.u64(), AsOfSeq: g.u64(), RelID: g.str()}
		for i := g.r.Intn(3); i > 0; i-- {
			m.Ranges = append(m.Ranges, RangeDigest{Lo: g.u64(), Hi: g.u64(), Hash: g.u64(), Count: g.u64()})
		}
		return m
	case 9:
		return RangeRepairRequestMsg{RelID: g.str(), Ranges: g.ranges()}
	}
	return RangeRepairMsg{RelID: g.str(), Ranges: g.ranges(), Ops: g.ops()}
}

const leafKinds = 11

// payload returns a payload of type kind (0..12): a leaf, a DataMsg around
// a leaf, or a MuxFrame around a leaf or a DataMsg.
func (g msgGen) payload(kind int) Payload {
	switch kind {
	case leafKinds:
		return DataMsg{Epoch: g.u64(), Seq: g.u64(), Msg: g.leaf(g.r.Intn(leafKinds))}
	case leafKinds + 1:
		return MuxFrame{Env: g.envelope(g.payload(g.r.Intn(leafKinds + 1)))}
	}
	return g.leaf(kind)
}

func (g msgGen) envelope(p Payload) Envelope {
	return Envelope{From: g.str(), To: g.str(), Seq: g.u64(), Msg: p}
}

func testMessages(n int) []Envelope {
	g := msgGen{rand.New(rand.NewSource(1))}
	out := make([]Envelope, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, g.envelope(g.payload(i%(leafKinds+2))))
	}
	return out
}

// TestCodecMatchesGob: on generated messages of all 13 payload types, the
// binary codec decodes what a gob round trip yields, keeps float bits (the
// sign of zero, which gob drops), and re-encodes to the same bytes.
func TestCodecMatchesGob(t *testing.T) {
	for i, env := range testMessages(2000) {
		b, err := Encode(env)
		if err != nil {
			t.Fatalf("message %d (%s): encode: %v", i, env, err)
		}
		got, err := DecodeEnvelope(b)
		if err != nil {
			t.Fatalf("message %d (%s): decode: %v", i, env, err)
		}
		if want := gobRoundTrip(t, env); !sameMsg(reflect.ValueOf(got), reflect.ValueOf(want), false) {
			t.Fatalf("message %d: binary codec and gob disagree\nbinary: %#v\ngob:    %#v", i, got, want)
		}
		if !sameMsg(reflect.ValueOf(got), reflect.ValueOf(env), true) {
			t.Fatalf("message %d: round trip changed the message\ngot:  %#v\nwant: %#v", i, got, env)
		}
		again, err := Encode(got)
		if err != nil || !bytes.Equal(again, b) {
			t.Fatalf("message %d: re-encoding differs (err %v)", i, err)
		}
		pb, err := EncodePayload(env.Msg)
		if err != nil {
			t.Fatalf("message %d: encode payload: %v", i, err)
		}
		p, err := DecodePayload(pb)
		if err != nil || !sameMsg(reflect.ValueOf(&p).Elem(), reflect.ValueOf(&env.Msg).Elem(), true) {
			t.Fatalf("message %d: payload round trip: %v, %#v", i, err, p)
		}
	}
}

// TestCodecRejectsMalformed: truncation, trailing bytes, unknown tags and
// foreign formats are errors, never panics.
func TestCodecRejectsMalformed(t *testing.T) {
	for i, env := range testMessages(200) {
		b, err := Encode(env)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(b); cut++ {
			if _, err := DecodeEnvelope(b[:cut]); err == nil {
				t.Fatalf("message %d truncated to %d of %d bytes decoded", i, cut, len(b))
			}
		}
		if _, err := DecodeEnvelope(append(b, 0)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("message %d with a trailing byte: err = %v", i, err)
		}
	}
	if _, err := DecodeEnvelope([]byte{formatV1, 0, 0, 0, 0xEE}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("unknown tag: err = %v", err)
	}
	gobFrame := func(env Envelope) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&env); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if _, err := DecodeEnvelope(gobFrame(testMessages(1)[0])); !errors.Is(err, ErrFormat) {
		t.Errorf("gob frame: err = %v, want ErrFormat", err)
	}
	bad := []Payload{
		DataMsg{Msg: DataMsg{}},
		DataMsg{Msg: MuxFrame{}},
		MuxFrame{Env: Envelope{Msg: MuxFrame{}}},
		MuxFrame{Env: Envelope{Msg: DataMsg{Msg: MuxFrame{}}}},
		&FactsMsg{},
	}
	for _, p := range bad {
		if _, err := Encode(Envelope{Msg: p}); err == nil {
			t.Errorf("encoded %#v", p)
		}
	}
}

// TestDeepNestingRejected: a frame of a million nested DataMsg (or
// MuxFrame) tags is refused at the second level; decoding runs under a
// stack limit far below what a million-deep recursion would need.
func TestDeepNestingRejected(t *testing.T) {
	old := debug.SetMaxStack(1 << 20)
	defer debug.SetMaxStack(old)
	for _, tag := range []byte{tagData, tagMuxFrame} {
		frame := append([]byte{formatV1, 0, 0, 0}, bytes.Repeat([]byte{tag}, 1_000_000)...)
		if _, err := DecodeEnvelope(frame); !errors.Is(err, ErrCorrupt) {
			t.Errorf("tag %d: err = %v, want ErrCorrupt", tag, err)
		}
		if _, err := DecodePayload(append([]byte{formatV1}, frame[4:]...)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("tag %d payload: err = %v, want ErrCorrupt", tag, err)
		}
	}
}

// TestDigestEncodingDeterministic: map-carrying adverts encode to one byte
// string however the maps iterate.
func TestDigestEncodingDeterministic(t *testing.T) {
	m := DigestMsg{Epoch: 7, AsOfSeq: 99, Rels: map[string]RelDigest{}, Deleg: map[string]uint64{}}
	for i := 0; i < 16; i++ {
		m.Rels[fmt.Sprintf("rel%d@b", i)] = RelDigest{Hash: uint64(i) * 0x9E3779B97F4A7C15, Count: uint64(i)}
		m.Deleg[fmt.Sprintf("rule%d", i)] = uint64(i) << 40
	}
	env := Envelope{From: "a", To: "b", Seq: 1, Msg: m}
	first, err := Encode(env)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		b, err := Encode(env)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, first) {
			t.Fatalf("encoding %d differs from the first", i)
		}
	}
}

// FuzzDecodeEnvelope: on arbitrary bytes, decoding never panics, allocates
// at most a constant factor of the input, and whatever decodes re-encodes
// to exactly the input (the decoder accepts one encoding per message).
func FuzzDecodeEnvelope(f *testing.F) {
	for _, env := range testMessages(40) {
		b, err := Encode(env)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{formatV1})
	f.Add([]byte("not a frame"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		env, err := DecodeEnvelope(data)
		p, perr := DecodePayload(data)
		runtime.ReadMemStats(&m1)
		if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc > 128*uint64(len(data))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), alloc)
		}
		if err == nil {
			b, err := Encode(env)
			if err != nil {
				t.Fatalf("decoded envelope does not re-encode: %v", err)
			}
			if !bytes.Equal(b, data) {
				t.Fatalf("re-encoding differs:\n in %x\nout %x", data, b)
			}
		}
		if perr == nil {
			b, err := EncodePayload(p)
			if err != nil {
				t.Fatalf("decoded payload does not re-encode: %v", err)
			}
			if !bytes.Equal(b, data) {
				t.Fatalf("payload re-encoding differs:\n in %x\nout %x", data, b)
			}
		}
	})
}

var benchFrame []byte

func benchMessages() []struct {
	name string
	env  Envelope
} {
	fact := func(i int) FactDelta {
		return FactDelta{Maint: true, Fact: ast.NewFact("attendeePictures", "jules",
			value.Int(int64(i)), value.Str(fmt.Sprintf("picture-%d.jpg", i)), value.Str("emilien"))}
	}
	var sixteen FactsMsg
	for i := 0; i < 16; i++ {
		sixteen.Ops = append(sixteen.Ops, fact(i))
	}
	rule := func(i int) ast.Rule {
		return ast.Rule{ID: fmt.Sprintf("r%d", i), Origin: "jules",
			Head: ast.NewAtom("attendeePictures", "jules", ast.V("id"), ast.V("name")),
			Body: []ast.Atom{
				ast.NewAtom("selectedAttendee", "jules", ast.V("a")),
				{Rel: ast.CStr("pictures"), Peer: ast.V("a"), Args: []ast.Term{ast.V("id"), ast.V("name")}},
			}}
	}
	data := func(p Payload) Envelope {
		return Envelope{From: "emilien", To: "jules", Seq: 42, Msg: DataMsg{Epoch: 0x5EED, Seq: 1234, Msg: p}}
	}
	return []struct {
		name string
		env  Envelope
	}{
		{"facts=1", data(FactsMsg{Ops: []FactDelta{fact(1)}})},
		{"facts=16", data(sixteen)},
		{"ack", Envelope{From: "jules", To: "emilien", Seq: 43, Msg: AckMsg{Epoch: 0x5EED, Seq: 1234}}},
		{"delegation=3", data(DelegationMsg{RuleID: "jules/r", Rules: []ast.Rule{rule(1), rule(2), rule(3)}})},
	}
}

func BenchmarkEncode(b *testing.B) {
	for _, bm := range benchMessages() {
		b.Run(bm.name, func(b *testing.B) {
			b.ReportAllocs()
			var frame []byte
			for b.Loop() {
				var err error
				if frame, err = Encode(bm.env); err != nil {
					b.Fatal(err)
				}
			}
			benchFrame = frame
			b.ReportMetric(float64(len(frame)), "frame-bytes")
		})
	}
}

func BenchmarkDecode(b *testing.B) {
	for _, bm := range benchMessages() {
		b.Run(bm.name, func(b *testing.B) {
			frame, err := Encode(bm.env)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := DecodeEnvelope(frame); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(frame)), "frame-bytes")
		})
	}
}
