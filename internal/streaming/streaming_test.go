package streaming

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/broker"
	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/media"
	"github.com/globalmmcs/globalmmcs/internal/testutil"
	"github.com/globalmmcs/globalmmcs/internal/transport"
	"github.com/globalmmcs/globalmmcs/internal/xgsp"
)

// streamRig assembles broker + XGSP + RTSP server.
type streamRig struct {
	b    *broker.Broker
	xsrv *xgsp.Server
	srv  *Server
}

func newStreamRig(t *testing.T) *streamRig {
	t.Helper()
	b := broker.New(broker.Config{ID: "stream-rig"})
	t.Cleanup(b.Stop)

	xc, err := b.LocalClient("xgsp-server", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	xsrv := xgsp.NewServer(xc, xgsp.ServerConfig{})
	if err := xsrv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(xsrv.Stop)

	xgwBC, err := b.LocalClient("rtsp-xgsp", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { xgwBC.Close() })
	xcli, err := xgsp.NewClient(context.Background(), xgwBC, "rtsp-server")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(xcli.Close)

	mediaBC, err := b.LocalClient("rtsp-media", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mediaBC.Close() })

	srv, err := NewServer(ServerConfig{XGSP: xcli, Broker: mediaBC})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	return &streamRig{b: b, xsrv: xsrv, srv: srv}
}

func (r *streamRig) createSession(t *testing.T, name string) *xgsp.SessionInfo {
	t.Helper()
	bc, err := r.b.LocalClient("owner-"+name, transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bc.Close() })
	owner, err := xgsp.NewClient(context.Background(), bc, "owner-"+name)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(owner.Close)
	info, err := owner.Create(context.Background(), xgsp.CreateSession{Name: name})
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// publishAudio starts a background publisher of n audio packets onto the
// session's audio topic and returns when it has finished or the test is
// cleaned up. Publish failures surface through the receive-side
// assertions of the calling test.
func (r *streamRig) publishAudio(t *testing.T, info *xgsp.SessionInfo, n int) {
	done := make(chan struct{})
	t.Cleanup(func() { <-done })
	go func() {
		defer close(done)
		bc, err := r.b.LocalClient("pub-"+info.ID, transport.LinkProfile{})
		if err != nil {
			return
		}
		defer bc.Close()
		src := media.NewAudioSource(media.AudioConfig{})
		topic := xgsp.SessionTopic(info.ID, "audio")
		for range n {
			raw, err := src.NextPacket().Marshal()
			if err != nil {
				return
			}
			if err := bc.Publish(topic, event.KindRTP, raw); err != nil {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
}

func TestRTSPFullPlayback(t *testing.T) {
	rig := newStreamRig(t)
	info := rig.createSession(t, "lecture")

	player, err := DialPlayer(rig.srv.URL(info.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer player.Close()

	tracks, err := player.Describe()
	if err != nil {
		t.Fatal(err)
	}
	audioID, ok := tracks["audio"]
	if !ok {
		t.Fatalf("no audio track in %v", tracks)
	}
	track, err := player.Setup("audio", audioID)
	if err != nil {
		t.Fatal(err)
	}
	if err := player.Play(); err != nil {
		t.Fatal(err)
	}
	rig.publishAudio(t, info, 100)

	deadline := time.Now().Add(10 * time.Second)
	for track.Received() < 20 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if track.Received() < 20 {
		t.Fatalf("player received %d packets", track.Received())
	}
	// The producer re-encodes to the streaming payload type.
	if pt := track.LastPayloadType(); pt != payloadStreamAudio {
		t.Fatalf("payload type = %d, want %d (transcoded)", pt, payloadStreamAudio)
	}
	if err := player.Teardown(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return rig.srv.SessionCount() == 0 })
}

func TestRTSPPauseStopsDelivery(t *testing.T) {
	rig := newStreamRig(t)
	info := rig.createSession(t, "pausable")
	player, err := DialPlayer(rig.srv.URL(info.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer player.Close()
	tracks, err := player.Describe()
	if err != nil {
		t.Fatal(err)
	}
	track, err := player.Setup("audio", tracks["audio"])
	if err != nil {
		t.Fatal(err)
	}
	if err := player.Play(); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	go func() {
		bc, err := rig.b.LocalClient("pauser-pub", transport.LinkProfile{})
		if err != nil {
			return
		}
		defer bc.Close()
		src := media.NewAudioSource(media.AudioConfig{})
		topic := xgsp.SessionTopic(info.ID, "audio")
		for {
			select {
			case <-stop:
				return
			default:
			}
			raw, err := src.NextPacket().Marshal()
			if err != nil {
				return
			}
			_ = bc.Publish(topic, event.KindRTP, raw)
			time.Sleep(2 * time.Millisecond)
		}
	}()
	defer close(stop)
	waitFor(t, 10*time.Second, func() bool { return track.Received() > 5 })
	if err := player.Pause(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // drain in-flight
	before := track.Received()
	time.Sleep(300 * time.Millisecond)
	after := track.Received()
	if after > before+2 {
		t.Fatalf("delivery continued while paused: %d -> %d", before, after)
	}
	if err := player.Play(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool { return track.Received() > after })
}

// TestProducerStopWithClientOpen: Stop ends the per-track consumers
// while the broker client, which the caller owns, stays open.
func TestProducerStopWithClientOpen(t *testing.T) {
	b := broker.New(broker.Config{ID: "producer-stop"})
	t.Cleanup(b.Stop)
	bc, err := b.LocalClient("producer", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bc.Close() })
	testutil.CheckGoroutines(t)
	info := &xgsp.SessionInfo{ID: "s1", Media: []xgsp.MediaDesc{
		{Type: xgsp.MediaAudio, Topic: xgsp.SessionTopic("s1", "audio")},
		{Type: xgsp.MediaVideo, Topic: xgsp.SessionTopic("s1", "video")},
	}}
	p, err := NewProducer(bc, info, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Stop()
}

func TestDescribeUnknownSession(t *testing.T) {
	rig := newStreamRig(t)
	player, err := DialPlayer("rtsp://" + rig.srv.Addr() + "/s404")
	if err != nil {
		t.Fatal(err)
	}
	defer player.Close()
	if _, err := player.Describe(); err == nil {
		t.Fatal("describe of unknown session succeeded")
	}
}

func TestProducerSharedAcrossPlayers(t *testing.T) {
	rig := newStreamRig(t)
	info := rig.createSession(t, "shared")
	p1, err := DialPlayer(rig.srv.URL(info.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer p1.Close()
	p2, err := DialPlayer(rig.srv.URL(info.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	tr1, err := p1.Describe()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p2.Describe(); err != nil {
		t.Fatal(err)
	}
	t1, err := p1.Setup("audio", tr1["audio"])
	if err != nil {
		t.Fatal(err)
	}
	t2, err := p2.Setup("audio", tr1["audio"])
	if err != nil {
		t.Fatal(err)
	}
	if err := p1.Play(); err != nil {
		t.Fatal(err)
	}
	if err := p2.Play(); err != nil {
		t.Fatal(err)
	}
	rig.publishAudio(t, info, 100)
	waitFor(t, 10*time.Second, func() bool {
		return t1.Received() > 10 && t2.Received() > 10
	})
	rig.srv.mu.Lock()
	producers := len(rig.srv.producers)
	rig.srv.mu.Unlock()
	if producers != 1 {
		t.Fatalf("producers = %d, want 1 shared", producers)
	}
}

func TestArchiveRecordReplay(t *testing.T) {
	rig := newStreamRig(t)
	info := rig.createSession(t, "archived")

	recBC, err := rig.b.LocalClient("recorder", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	defer recBC.Close()
	topic := xgsp.SessionTopic(info.ID, "audio")
	sub, err := recBC.Subscribe(topic, 256)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	recCtx, stopRec := context.WithCancel(context.Background())
	recCount := make(chan int, 1)
	var arch Archiver
	go func() {
		n, err := arch.Record(recCtx, &buf, sub)
		if err != nil {
			t.Errorf("record: %v", err)
		}
		recCount <- n
	}()
	rig.publishAudio(t, info, 30)
	time.Sleep(200 * time.Millisecond)
	stopRec()
	n := <-recCount
	if n != 30 {
		t.Fatalf("recorded %d, want 30", n)
	}

	// Replay into a different session topic; a subscriber sees the
	// stream again.
	replayBC, err := rig.b.LocalClient("replayer", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	defer replayBC.Close()
	obs, err := replayBC.Subscribe("/xgsp/session/replayed/audio", 256)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := arch.Replay(context.Background(), &buf, replayBC, false, func(string) string {
		return "/xgsp/session/replayed/audio"
	})
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 30 {
		t.Fatalf("replayed %d, want 30", replayed)
	}
	got := 0
	deadline := time.Now().Add(5 * time.Second)
	for got < 30 {
		if _, err := recvWithin(obs, time.Until(deadline)); err != nil {
			t.Fatalf("observed %d/30 replayed packets", got)
		}
		got++
	}
}

// recvWithin receives one event from sub, waiting at most d.
func recvWithin(sub *broker.Subscription, d time.Duration) (*event.Event, error) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	buf, err := sub.RecvBatchContext(ctx, nil, 1)
	if err != nil {
		return nil, err
	}
	return buf[0], nil
}

// countingSink collects replayed events without a broker.
type countingSink struct{ events []*event.Event }

func (s *countingSink) PublishEvent(e *event.Event) error {
	s.events = append(s.events, e)
	return nil
}

func archiveEvent(i int) *event.Event {
	return &event.Event{
		Topic:     "/xgsp/session/legacy/audio",
		Kind:      event.KindData,
		Source:    "legacy-rec",
		Payload:   []byte{byte(i), byte(i >> 8)},
		Timestamp: int64(i + 1),
	}
}

// legacyArchive builds an archive in the pre-topiclog format:
// 4-byte big-endian length then the encoded event.
func legacyArchive(n int) *bytes.Buffer {
	var buf bytes.Buffer
	var hdr [4]byte
	for i := 0; i < n; i++ {
		b := event.Marshal(archiveEvent(i))
		binary.BigEndian.PutUint32(hdr[:], uint32(len(b)))
		buf.Write(hdr[:])
		buf.Write(b)
	}
	return &buf
}

func TestArchiveRejectsLegacyFormat(t *testing.T) {
	var arch Archiver
	var sink countingSink
	_, err := arch.Replay(context.Background(), legacyArchive(5), &sink, false, nil)
	if !errors.Is(err, ErrLegacyArchive) {
		t.Fatalf("replaying legacy archive: err = %v, want ErrLegacyArchive", err)
	}
	if len(sink.events) != 0 {
		t.Fatalf("replayed %d events from rejected archive", len(sink.events))
	}
}

func TestArchiveReplayTornTail(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 10; i++ {
		if err := WriteFrame(&buf, uint64(i+1), archiveEvent(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Chop the final record mid-payload: a crashed recorder leaves
	// exactly this shape. Replay must end cleanly after record 9.
	torn := buf.Bytes()[:buf.Len()-3]
	var arch Archiver
	var sink countingSink
	got, err := arch.Replay(context.Background(), bytes.NewReader(torn), &sink, false, nil)
	if err != nil {
		t.Fatalf("replaying torn archive: %v", err)
	}
	if got != 9 {
		t.Fatalf("replayed %d, want 9 (torn tail dropped)", got)
	}
}

func TestSessionIDFromURL(t *testing.T) {
	cases := []struct {
		url     string
		id      string
		trackID int
		has     bool
	}{
		{"rtsp://h:1/s1", "s1", -1, false},
		{"rtsp://h:1/s1/trackID=2", "s1", 2, true},
		{"rtsp://h:1", "", 0, false},
		{"/s9/trackID=0", "s9", 0, true},
	}
	for _, tc := range cases {
		id, track, has := sessionIDFromURL(tc.url)
		if id != tc.id || has != tc.has || (has && track != tc.trackID) {
			t.Errorf("sessionIDFromURL(%q) = %q %d %v", tc.url, id, track, has)
		}
	}
}

func TestParseClientPort(t *testing.T) {
	if got := parseClientPort("RTP/AVP;unicast;client_port=5004-5005"); got != 5004 {
		t.Fatal(got)
	}
	if got := parseClientPort("RTP/AVP;unicast"); got != 0 {
		t.Fatal(got)
	}
}

func waitFor(t *testing.T, within time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("condition not reached")
}
