package accessgrid

import (
	"context"
	"testing"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/broker"
	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/media"
	"github.com/globalmmcs/globalmmcs/internal/rtp"
	"github.com/globalmmcs/globalmmcs/internal/testutil"
	"github.com/globalmmcs/globalmmcs/internal/transport"
	"github.com/globalmmcs/globalmmcs/internal/xgsp"
)

func TestVenueLifecycle(t *testing.T) {
	vs := NewVenueServer()
	defer vs.Stop()
	v, err := vs.CreateVenue("lobby")
	if err != nil {
		t.Fatal(err)
	}
	if v.Name != "lobby" {
		t.Fatal(v.Name)
	}
	if _, err := vs.CreateVenue("lobby"); err == nil {
		t.Fatal("duplicate venue accepted")
	}
	if _, ok := vs.Venue("lobby"); !ok {
		t.Fatal("lookup failed")
	}
	if got := vs.Venues(); len(got) != 1 || got[0] != "lobby" {
		t.Fatalf("venues = %v", got)
	}
	if _, err := vs.Enter("nowhere", "u"); err == nil {
		t.Fatal("entered unknown venue")
	}
}

func TestVenueMediaGroups(t *testing.T) {
	vs := NewVenueServer()
	defer vs.Stop()
	if _, err := vs.CreateVenue("room-a"); err != nil {
		t.Fatal(err)
	}
	alice, err := vs.Enter("room-a", "alice")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := vs.Enter("room-a", "bob")
	if err != nil {
		t.Fatal(err)
	}
	// Audio and video groups are isolated.
	alice.Audio.Send([]byte("audio-pkt"))
	select {
	case got := <-bob.Audio.Recv():
		if string(got) != "audio-pkt" {
			t.Fatalf("got %q", got)
		}
	case <-time.After(time.Second):
		t.Fatal("audio group failed")
	}
	select {
	case <-bob.Video.Recv():
		t.Fatal("audio leaked into video group")
	default:
	}
	alice.Leave()
	bob.Leave()
}

// TestBridgeCloseWithClientOpen: Close stops both relay directions
// while the broker client, which the caller owns, stays open.
func TestBridgeCloseWithClientOpen(t *testing.T) {
	b := broker.New(broker.Config{ID: "ag-close"})
	t.Cleanup(b.Stop)
	bc, err := b.LocalClient("ag-bridge", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bc.Close() })
	vs := NewVenueServer()
	t.Cleanup(vs.Stop)
	if _, err := vs.CreateVenue("room"); err != nil {
		t.Fatal(err)
	}
	testutil.CheckGoroutines(t)
	info := &xgsp.SessionInfo{ID: "s1", Media: []xgsp.MediaDesc{
		{Type: xgsp.MediaAudio, Topic: xgsp.SessionTopic("s1", "audio")},
		{Type: xgsp.MediaVideo, Topic: xgsp.SessionTopic("s1", "video")},
	}}
	bridge, err := NewBridge(bc, vs, "room", info)
	if err != nil {
		t.Fatal(err)
	}
	bridge.Close()
}

func TestBridgeVenueToSession(t *testing.T) {
	b := broker.New(broker.Config{ID: "ag-bridge-test"})
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
	ownerBC, err := b.LocalClient("owner", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ownerBC.Close() })
	owner, err := xgsp.NewClient(context.Background(), ownerBC, "owner")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(owner.Close)
	info, err := owner.Create(context.Background(), xgsp.CreateSession{Name: "ag-linked", Community: "accessgrid"})
	if err != nil {
		t.Fatal(err)
	}

	vs := NewVenueServer()
	t.Cleanup(vs.Stop)
	if _, err := vs.CreateVenue("big-room"); err != nil {
		t.Fatal(err)
	}
	bridgeBC, err := b.LocalClient("ag-bridge", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bridgeBC.Close() })
	bridge, err := NewBridge(bridgeBC, vs, "big-room", info)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bridge.Close)

	agUser, err := vs.Enter("big-room", "ag-user")
	if err != nil {
		t.Fatal(err)
	}
	mmcsBC, err := b.LocalClient("mmcs-user", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mmcsBC.Close() })
	videoTopic := xgsp.SessionTopic(info.ID, "video")
	mmcsSub, err := mmcsBC.Subscribe(videoTopic, 64)
	if err != nil {
		t.Fatal(err)
	}

	// AG venue → MMCS topic.
	v := media.NewVideoSource(media.VideoConfig{})
	framePkts := v.NextFrame()
	raw, err := framePkts[0].Marshal()
	if err != nil {
		t.Fatal(err)
	}
	agUser.Video.Send(raw)
	e, err := recvWithin(mmcsSub, 5*time.Second)
	if err != nil {
		t.Fatal("venue → session failed")
	}
	var p rtp.Packet
	if err := p.Unmarshal(e.Payload); err != nil {
		t.Fatal(err)
	}
	if p.SSRC != framePkts[0].SSRC {
		t.Fatalf("ssrc = %x", p.SSRC)
	}

	// MMCS topic → AG venue.
	raw2, err := framePkts[1].Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := mmcsBC.Publish(videoTopic, event.KindRTP, raw2); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-agUser.Video.Recv():
		var p rtp.Packet
		if err := p.Unmarshal(got); err != nil {
			t.Fatal(err)
		}
		if p.SequenceNumber != framePkts[1].SequenceNumber {
			t.Fatalf("seq = %d", p.SequenceNumber)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("session → venue failed")
	}
}

func TestVenueServerStopped(t *testing.T) {
	vs := NewVenueServer()
	vs.Stop()
	if _, err := vs.CreateVenue("late"); err == nil {
		t.Fatal("create after stop")
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
