// Package im implements the instant-messaging and presence services of
// Global-MMCS: per-session chat rooms carried on the broker's chat
// topics (with server-kept history), and a presence service on
// /presence/<community>/<user> topics — the ad-hoc collaboration support
// the paper's Jabber servers and SIP proxies provide.
package im

import (
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/broker"
	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/xgsp"
)

// ChatMessage is one room message, carried as XML in KindChat events.
type ChatMessage struct {
	XMLName xml.Name `xml:"chat"`
	// From is the sending user.
	From string `xml:"from,attr"`
	// Session is the room's session id.
	Session string `xml:"session,attr"`
	// At is the send time in nanoseconds since the Unix epoch.
	At int64 `xml:"at,attr"`
	// Body is the message text.
	Body string `xml:",chardata"`
}

// PresenceStatus enumerates presence states.
type PresenceStatus string

// Presence states.
const (
	StatusOnline  PresenceStatus = "online"
	StatusAway    PresenceStatus = "away"
	StatusBusy    PresenceStatus = "busy"
	StatusOffline PresenceStatus = "offline"
)

// Presence is one presence update, carried as XML in KindPresence events.
type Presence struct {
	XMLName   xml.Name       `xml:"presence"`
	User      string         `xml:"user,attr"`
	Community string         `xml:"community,attr"`
	Status    PresenceStatus `xml:"status,attr"`
	Note      string         `xml:",chardata"`
	At        int64          `xml:"at,attr"`
}

// PresenceTopic returns the topic carrying one user's presence.
func PresenceTopic(community, user string) string {
	return "/presence/" + community + "/" + user
}

// communityPresencePattern subscribes to every user of a community.
func communityPresencePattern(community string) string {
	return "/presence/" + community + "/*"
}

// chatTopic returns a session's chat topic.
func chatTopic(sessionID string) string {
	return xgsp.SessionTopic(sessionID, string(xgsp.MediaChat))
}

// ParseChat decodes a chat event payload.
func ParseChat(e *event.Event) (*ChatMessage, error) {
	if e.Kind != event.KindChat {
		return nil, fmt.Errorf("im: event kind %s is not chat", e.Kind)
	}
	var m ChatMessage
	if err := xml.Unmarshal(e.Payload, &m); err != nil {
		return nil, fmt.Errorf("im: parsing chat message: %w", err)
	}
	return &m, nil
}

// ParsePresence decodes a presence event payload.
func ParsePresence(e *event.Event) (*Presence, error) {
	if e.Kind != event.KindPresence {
		return nil, fmt.Errorf("im: event kind %s is not presence", e.Kind)
	}
	var p Presence
	if err := xml.Unmarshal(e.Payload, &p); err != nil {
		return nil, fmt.Errorf("im: parsing presence: %w", err)
	}
	return &p, nil
}

// ServiceConfig parameterises the IM service.
type ServiceConfig struct {
	// Communities lists the communities whose presence the service
	// aggregates. Default ["global"].
	Communities []string

	// historyLimit bounds per-room history. Default 500; a field only so
	// this package's tests can shrink it.
	historyLimit int
}

func (c ServiceConfig) withDefaults() ServiceConfig {
	if c.historyLimit <= 0 {
		c.historyLimit = 500
	}
	if len(c.Communities) == 0 {
		c.Communities = []string{"global"}
	}
	return c
}

// Service is the IM server: it records chat history for every session
// room and tracks the latest presence of every user in its communities.
// It also implements the SIP server's ChatPublisher so SIP MESSAGEs land
// in rooms.
type Service struct {
	cfg ServiceConfig
	bc  *broker.Client

	mu       sync.Mutex
	rooms    map[string][]ChatMessage
	presence map[string]Presence // community/user → latest

	wg sync.WaitGroup
}

// NewService subscribes the service to all chat rooms and the configured
// communities' presence. ctx bounds the subscription handshakes.
func NewService(ctx context.Context, bc *broker.Client, cfg ServiceConfig) (*Service, error) {
	s := &Service{
		cfg:      cfg.withDefaults(),
		bc:       bc,
		rooms:    make(map[string][]ChatMessage),
		presence: make(map[string]Presence),
	}
	chatSub, err := bc.SubscribeContext(ctx, "/xgsp/session/*/chat", 1024)
	if err != nil {
		return nil, fmt.Errorf("im: subscribing chat rooms: %w", err)
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.consumeChat(chatSub)
	}()
	for _, community := range s.cfg.Communities {
		sub, err := bc.SubscribeContext(ctx, communityPresencePattern(community), 256)
		if err != nil {
			return nil, fmt.Errorf("im: subscribing presence for %s: %w", community, err)
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.consumePresence(sub)
		}()
	}
	return s, nil
}

// Stop closes the broker client, which ends the service's consumers.
func (s *Service) Stop() {
	s.bc.Close()
	s.wg.Wait()
}

func (s *Service) consumeChat(sub *broker.Subscription) {
	var buf []*event.Event
	for {
		var ok bool
		if buf, ok = sub.RecvBatch(buf[:0], 0); !ok {
			return
		}
		for _, e := range buf {
			if m, err := ParseChat(e); err == nil {
				s.record(*m)
			}
		}
		clear(buf)
	}
}

func (s *Service) consumePresence(sub *broker.Subscription) {
	var buf []*event.Event
	for {
		var ok bool
		if buf, ok = sub.RecvBatch(buf[:0], 0); !ok {
			return
		}
		for _, e := range buf {
			if p, err := ParsePresence(e); err == nil {
				s.mu.Lock()
				s.presence[p.Community+"/"+p.User] = *p
				s.mu.Unlock()
			}
		}
		clear(buf)
	}
}

func (s *Service) record(m ChatMessage) {
	s.mu.Lock()
	defer s.mu.Unlock()
	msgs := append(s.rooms[m.Session], m)
	if len(msgs) > s.cfg.historyLimit {
		msgs = msgs[len(msgs)-s.cfg.historyLimit:]
	}
	s.rooms[m.Session] = msgs
}

// PublishChat posts a message into a session room on behalf of a user
// (implements the SIP gateway's ChatPublisher).
func (s *Service) PublishChat(sessionID, from, body string) error {
	return publishChat(s.bc, sessionID, from, body)
}

// History returns up to limit most recent messages of a room.
func (s *Service) History(sessionID string, limit int) []ChatMessage {
	s.mu.Lock()
	defer s.mu.Unlock()
	msgs := s.rooms[sessionID]
	if limit > 0 && len(msgs) > limit {
		msgs = msgs[len(msgs)-limit:]
	}
	out := make([]ChatMessage, len(msgs))
	copy(out, msgs)
	return out
}

// PresenceOf returns the latest presence of a user, defaulting to
// offline.
func (s *Service) PresenceOf(community, user string) Presence {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p, ok := s.presence[community+"/"+user]; ok {
		return p
	}
	return Presence{User: user, Community: community, Status: StatusOffline}
}

// Roster lists the known users of a community with their latest state.
func (s *Service) Roster(community string) []Presence {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Presence
	for _, p := range s.presence {
		if p.Community == community {
			out = append(out, p)
		}
	}
	sortPresences(out)
	return out
}

func sortPresences(ps []Presence) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].User < ps[j-1].User; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

func publishChat(bc *broker.Client, sessionID, from, body string) error {
	if sessionID == "" || from == "" {
		return errors.New("im: session and sender required")
	}
	m := ChatMessage{From: from, Session: sessionID, At: time.Now().UnixNano(), Body: body}
	b, err := xml.Marshal(m)
	if err != nil {
		return fmt.Errorf("im: encoding chat: %w", err)
	}
	e := event.New(chatTopic(sessionID), event.KindChat, b)
	e.Reliable = true
	return bc.PublishEvent(e)
}

// Chatter is the client side of IM: join rooms, send messages, publish
// presence, watch rosters.
type Chatter struct {
	bc   *broker.Client
	user string
}

// NewChatter creates a chat client for user over a broker client.
func NewChatter(bc *broker.Client, user string) (*Chatter, error) {
	if user == "" {
		return nil, errors.New("im: user required")
	}
	return &Chatter{bc: bc, user: user}, nil
}

// JoinRoom subscribes to a session's chat room with a delivery buffer
// of depth events (default 256 when <= 0). ctx bounds the subscription
// handshake.
func (c *Chatter) JoinRoom(ctx context.Context, sessionID string, depth int) (*broker.Subscription, error) {
	if depth <= 0 {
		depth = 256
	}
	return c.bc.SubscribeContext(ctx, chatTopic(sessionID), depth)
}

// Send posts a message to a room.
func (c *Chatter) Send(sessionID, body string) error {
	return publishChat(c.bc, sessionID, c.user, body)
}

// SetPresence publishes the user's presence state.
func (c *Chatter) SetPresence(community string, status PresenceStatus, note string) error {
	p := Presence{User: c.user, Community: community, Status: status, Note: note, At: time.Now().UnixNano()}
	b, err := xml.Marshal(p)
	if err != nil {
		return fmt.Errorf("im: encoding presence: %w", err)
	}
	e := event.New(PresenceTopic(community, c.user), event.KindPresence, b)
	e.Reliable = true
	return c.bc.PublishEvent(e)
}

// WatchCommunity subscribes to all presence updates of a community with
// a delivery buffer of depth events (default 256 when <= 0).
func (c *Chatter) WatchCommunity(ctx context.Context, community string, depth int) (*broker.Subscription, error) {
	if depth <= 0 {
		depth = 256
	}
	return c.bc.SubscribeContext(ctx, communityPresencePattern(community), depth)
}
