package main

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/ast"
	"repro/internal/peer"
	"repro/internal/value"
	"repro/internal/wepic"
)

// wepic: the paper's own application rules through internal/wepic.
// Attendees run on the bus network with async outboxes and default
// anti-entropy. Each attendee holds pictures and has selected one other
// attendee, which delegates the §2 view rule to it. A round is Round ops
// from a seeded mix: switch a selection (withdraws one delegation and
// installs another), rate a picture at its owner, or upload a picture and
// retract the owner's oldest.

type wepicSizes struct {
	Attendees, Pictures, PicBytes, Round int
}

var wepicFull = wepicSizes{Attendees: 1000, Pictures: 32, PicBytes: 256, Round: 10}

type wepicPic struct {
	id   int64
	name string
	data []byte
}

type rating struct {
	owner, id, stars int64
}

const (
	opSwitch = iota
	opRate
	opUpload
)

type wepicOp struct {
	kind   int
	viewer int // switch
	owner  int // rate, upload
	r      rating
	add    wepicPic // upload
	old    wepicPic // upload
}

type wepicSystem struct {
	loop
	sz      wepicSizes
	plan    *rand.Rand
	apps    []*wepic.App
	names   []string
	pics    [][]wepicPic // each owner's current pictures, oldest first
	sel     []int        // each viewer's selected attendee
	ratings []rating
	uploads int
}

func wepicName(i int) string { return fmt.Sprintf("a%04d", i) }

func (s *wepicSystem) newPic(owner int) (string, []byte) {
	s.uploads++
	data := make([]byte, s.sz.PicBytes)
	s.plan.Read(data)
	return fmt.Sprintf("%s-%06d.jpg", s.names[owner], s.uploads), data
}

func picTuple(owner string, p wepicPic) value.Tuple {
	return value.NewTuple(value.Int(p.id), value.Str(p.name), value.Str(owner), value.Blob(p.data))
}

func buildWepic(ctx context.Context, sz wepicSizes, seed int64, tr *tracer) (system, error) {
	s := &wepicSystem{
		loop: loop{name: "wepic", net: peer.NewNetwork(), tr: tr, maxRounds: 10000},
		sz:   sz,
		plan: rand.New(rand.NewSource(seed)),
		pics: make([][]wepicPic, sz.Attendees),
		sel:  make([]int, sz.Attendees),
	}
	s.next = s.nextRound
	for i := 0; i < sz.Attendees; i++ {
		s.names = append(s.names, wepicName(i))
		app, err := wepic.New(s.net, s.names[i], wepic.Options{})
		if err != nil {
			s.close()
			return nil, fmt.Errorf("wepic: attendee %s: %w", s.names[i], err)
		}
		s.apps = append(s.apps, app)
		s.peers = append(s.peers, app.Peer())
	}
	for i, app := range s.apps {
		names := make([]string, sz.Pictures)
		datas := make([][]byte, sz.Pictures)
		for k := range names {
			names[k], datas[k] = s.newPic(i)
		}
		ids, err := app.UploadAll(ctx, names, datas)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("wepic: upload: %w", err)
		}
		for k, id := range ids {
			s.pics[i] = append(s.pics[i], wepicPic{id: id, name: names[k], data: datas[k]})
		}
	}
	for i, app := range s.apps {
		s.sel[i] = s.otherThan(i, -1)
		if err := app.SelectAttendee(s.names[s.sel[i]]); err != nil {
			s.close()
			return nil, fmt.Errorf("wepic: select: %w", err)
		}
	}
	if _, _, err := s.net.RunToQuiescence(ctx, s.maxRounds); err != nil {
		s.close()
		return nil, fmt.Errorf("wepic: initial convergence: %w", err)
	}
	return s, nil
}

// otherThan draws an attendee that is neither a nor b.
func (s *wepicSystem) otherThan(a, b int) int {
	for {
		if t := s.plan.Intn(s.sz.Attendees); t != a && t != b {
			return t
		}
	}
}

// issue performs one op through the Wepic API and updates the model.
func (s *wepicSystem) issue(op *wepicOp) error {
	switch op.kind {
	case opSwitch:
		v := op.viewer
		app := s.apps[v]
		next := s.otherThan(v, s.sel[v])
		if err := app.DeselectAttendee(s.names[s.sel[v]]); err != nil {
			return err
		}
		s.sel[v] = next
		return app.SelectAttendee(s.names[next])
	case opRate:
		rater := s.plan.Intn(s.sz.Attendees)
		o := op.owner
		pic := s.pics[o][s.plan.Intn(len(s.pics[o]))]
		op.r = rating{owner: int64(o), id: pic.id, stars: 1 + s.plan.Int63n(5)}
		s.ratings = append(s.ratings, op.r)
		return s.apps[rater].Rate(s.names[o], pic.id, op.r.stars)
	default:
		o := op.owner
		app := s.apps[o]
		name, data := s.newPic(o)
		id, err := app.Upload(name, data)
		if err != nil {
			return err
		}
		op.add = wepicPic{id: id, name: name, data: data}
		op.old = s.pics[o][0]
		s.pics[o] = append(s.pics[o][1:], op.add)
		return app.Peer().Delete(ast.Fact{Rel: "pictures", Peer: s.names[o], Args: picTuple(s.names[o], op.old)})
	}
}

// nextRound plans one round of ops drawn from the seeded mix.
func (s *wepicSystem) nextRound(context.Context) (int, func(int) error, func(int) error) {
	ops := make([]wepicOp, s.sz.Round)
	issue := func(i int) error {
		op := &ops[i]
		op.kind = s.plan.Intn(3)
		op.viewer = s.plan.Intn(s.sz.Attendees)
		op.owner = s.plan.Intn(s.sz.Attendees)
		err := s.issue(op)
		if err == nil && op.kind == opUpload && len(s.samples) < 64 {
			s.samples = append(s.samples, ast.Fact{Rel: "attendeePictures", Peer: s.names[0], Args: picTuple(s.names[op.owner], op.add)})
		}
		return err
	}
	return len(ops), issue, func(i int) error { return s.checkOp(&ops[i]) }
}

// checkOp verifies one op's effect once its round has quiesced.
func (s *wepicSystem) checkOp(op *wepicOp) error {
	switch op.kind {
	case opSwitch:
		return s.checkViewer(op.viewer)
	case opRate:
		return s.checkRating(op.r)
	default:
		owner := s.names[op.owner]
		rel := s.apps[op.owner].Peer().Store().Get("pictures", owner)
		if !rel.Contains(picTuple(owner, op.add)) && s.current(op.owner, op.add.id) {
			return fmt.Errorf("wepic: %s misses uploaded picture %d", owner, op.add.id)
		}
		if rel.Contains(picTuple(owner, op.old)) {
			return fmt.Errorf("wepic: %s still holds retracted picture %d", owner, op.old.id)
		}
		return nil
	}
}

func (s *wepicSystem) current(owner int, id int64) bool {
	for _, p := range s.pics[owner] {
		if p.id == id {
			return true
		}
	}
	return false
}

// checkViewer compares a viewer's attendeePictures with its selected
// attendee's current pictures.
func (s *wepicSystem) checkViewer(v int) error {
	t := s.sel[v]
	want := make(map[string]bool, len(s.pics[t]))
	for _, p := range s.pics[t] {
		want[picTuple(s.names[t], p).Key()] = true
	}
	if err := sameSet(s.apps[v].Peer().Query("attendeePictures"), want); err != nil {
		return fmt.Errorf("wepic: attendeePictures@%s (selected %s): %w", s.names[v], s.names[t], err)
	}
	return nil
}

func (s *wepicSystem) checkRating(r rating) error {
	owner := s.names[r.owner]
	rel := s.apps[r.owner].Peer().Store().Get("rate", owner)
	if rel == nil || !rel.Contains(value.NewTuple(value.Int(r.id), value.Int(r.stars))) {
		return fmt.Errorf("wepic: rating %d stars of picture %d missing at %s", r.stars, r.id, owner)
	}
	return nil
}

// verify checks every viewer's view, every owner's pictures and every
// rating issued during the run.
func (s *wepicSystem) verify(context.Context) error {
	for v := range s.apps {
		if err := s.checkViewer(v); err != nil {
			return err
		}
		want := make(map[string]bool, len(s.pics[v]))
		for _, p := range s.pics[v] {
			want[picTuple(s.names[v], p).Key()] = true
		}
		if err := sameSet(s.apps[v].Peer().Query("pictures"), want); err != nil {
			return fmt.Errorf("wepic: pictures@%s: %w", s.names[v], err)
		}
	}
	for _, r := range s.ratings {
		if err := s.checkRating(r); err != nil {
			return err
		}
	}
	return nil
}

func (s *wepicSystem) read(_ context.Context, sn *snap) error {
	sn.readPeers(s.peers)
	sn.schedScans = s.net.SchedulerScans()
	st := s.net.Bus().Stats()
	sn.transport.sends = st.MessagesSent
	return nil
}

func (s *wepicSystem) close() {
	for _, p := range s.peers {
		p.Close()
	}
}
