// Package accessgrid simulates the Access Grid venue model (§2.1) at the
// surface Global-MMCS integrates against: a venue server hosting named
// venues, each with per-media emulated multicast groups, venue clients,
// and a bridge mapping a venue's groups onto a Global-MMCS session's
// topics.
package accessgrid

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/globalmmcs/globalmmcs/internal/broker"
	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/mcast"
	"github.com/globalmmcs/globalmmcs/internal/xgsp"
)

// Media kinds carried by a venue.
const (
	MediaAudio = "audio"
	MediaVideo = "video"
)

// Venue is one Access Grid virtual room.
type Venue struct {
	Name   string
	groups map[string]*mcast.Bus
	users  map[string]struct{}
}

// VenueServer hosts venues.
type VenueServer struct {
	mu     sync.Mutex
	venues map[string]*Venue
	closed bool
}

// NewVenueServer creates an empty venue server.
func NewVenueServer() *VenueServer {
	return &VenueServer{venues: make(map[string]*Venue)}
}

// Stop closes all venues.
func (vs *VenueServer) Stop() {
	vs.mu.Lock()
	venues := make([]*Venue, 0, len(vs.venues))
	for _, v := range vs.venues {
		venues = append(venues, v)
	}
	clear(vs.venues)
	vs.closed = true
	vs.mu.Unlock()
	for _, v := range venues {
		for _, g := range v.groups {
			g.Close()
		}
	}
}

// CreateVenue adds a venue with audio and video groups.
func (vs *VenueServer) CreateVenue(name string) (*Venue, error) {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	if vs.closed {
		return nil, errors.New("accessgrid: server stopped")
	}
	if _, exists := vs.venues[name]; exists {
		return nil, fmt.Errorf("accessgrid: venue %q exists", name)
	}
	v := &Venue{
		Name: name,
		groups: map[string]*mcast.Bus{
			MediaAudio: mcast.NewBus(),
			MediaVideo: mcast.NewBus(),
		},
		users: make(map[string]struct{}),
	}
	vs.venues[name] = v
	return v, nil
}

// Venue looks a venue up.
func (vs *VenueServer) Venue(name string) (*Venue, bool) {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	v, ok := vs.venues[name]
	return v, ok
}

// Venues lists venue names.
func (vs *VenueServer) Venues() []string {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	out := make([]string, 0, len(vs.venues))
	for name := range vs.venues {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// VenueClient is one participant's memberships in a venue.
type VenueClient struct {
	User  string
	Audio *mcast.Member
	Video *mcast.Member
}

// Enter joins a user into a venue's media groups.
func (vs *VenueServer) Enter(venueName, user string) (*VenueClient, error) {
	vs.mu.Lock()
	v, ok := vs.venues[venueName]
	if ok {
		v.users[user] = struct{}{}
	}
	vs.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("accessgrid: no venue %q", venueName)
	}
	audio, err := v.groups[MediaAudio].Join(0)
	if err != nil {
		return nil, err
	}
	video, err := v.groups[MediaVideo].Join(0)
	if err != nil {
		audio.Leave()
		return nil, err
	}
	return &VenueClient{User: user, Audio: audio, Video: video}, nil
}

// Leave removes the client's memberships.
func (c *VenueClient) Leave() {
	c.Audio.Leave()
	c.Video.Leave()
}

// Bridge relays one venue's media groups ↔ one Global-MMCS session's
// topics bidirectionally.
type Bridge struct {
	bc    *broker.Client
	audio *mcast.Member
	video *mcast.Member

	wg   sync.WaitGroup
	stop context.CancelFunc
}

// NewBridge joins the venue's groups and wires them to the session.
func NewBridge(bc *broker.Client, vs *VenueServer, venueName string, session *xgsp.SessionInfo) (*Bridge, error) {
	client, err := vs.Enter(venueName, "mmcs-bridge")
	if err != nil {
		return nil, err
	}
	b := &Bridge{
		bc:    bc,
		audio: client.Audio,
		video: client.Video,
	}
	var audioTopic, videoTopic string
	for _, m := range session.Media {
		switch m.Type {
		case xgsp.MediaAudio:
			audioTopic = m.Topic
		case xgsp.MediaVideo:
			videoTopic = m.Topic
		}
	}
	type wiring struct {
		member *mcast.Member
		topic  string
	}
	ctx, stop := context.WithCancel(context.Background())
	b.stop = stop
	for _, w := range []wiring{{client.Audio, audioTopic}, {client.Video, videoTopic}} {
		if w.topic == "" {
			continue
		}
		sub, err := bc.Subscribe(w.topic, 512)
		if err != nil {
			b.Close()
			return nil, fmt.Errorf("accessgrid: subscribing %s: %w", w.topic, err)
		}
		member, topic := w.member, w.topic
		b.wg.Add(2)
		go func() {
			defer b.wg.Done()
			b.topicToGroup(ctx, sub, member)
		}()
		go func() {
			defer b.wg.Done()
			b.groupToTopic(ctx, member, topic)
		}()
	}
	return b, nil
}

// Close stops the bridge and leaves the venue.
func (b *Bridge) Close() {
	b.stop()
	b.audio.Leave()
	b.video.Leave()
	b.wg.Wait()
}

func (b *Bridge) topicToGroup(ctx context.Context, sub *broker.Subscription, member *mcast.Member) {
	var buf []*event.Event
	for {
		var err error
		if buf, err = sub.RecvBatchContext(ctx, buf[:0], 0); err != nil {
			return
		}
		for _, e := range buf {
			if e.Kind == event.KindRTP && e.Source != b.bc.ID() {
				member.Send(e.Payload)
			}
		}
		clear(buf)
	}
}

func (b *Bridge) groupToTopic(ctx context.Context, member *mcast.Member, topic string) {
	for {
		select {
		case data, ok := <-member.Recv():
			if !ok {
				return
			}
			if err := b.bc.PublishEvent(event.New(topic, event.KindRTP, data)); err != nil {
				return
			}
		case <-ctx.Done():
			return
		}
	}
}
