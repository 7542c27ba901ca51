package globalmmcs

import (
	"context"
	"sync"

	"github.com/globalmmcs/globalmmcs/internal/broker"
	"github.com/globalmmcs/globalmmcs/internal/core"
	"github.com/globalmmcs/globalmmcs/internal/xgsp"
)

// Participant is one member of a session.
type Participant struct {
	// UserID identifies the user across all communities.
	UserID string
	// Terminal names the media endpoint the user attends with (a SIP
	// UA, an H.323 terminal, an RTSP player, a native client...).
	Terminal string
	// Community names the collaboration community the user comes from
	// ("" for native Global-MMCS clients; "sip", "h323", "admire",
	// "accessgrid" for gateway-joined users).
	Community string
}

// SessionDetails is a point-in-time description of a session.
type SessionDetails struct {
	ID           string
	Name         string
	Creator      string
	Community    string
	Active       bool
	Participants []Participant
	Media        []MediaStream
}

func detailsFromInfo(info *xgsp.SessionInfo) SessionDetails {
	d := SessionDetails{
		ID:        info.ID,
		Name:      info.Name,
		Creator:   info.Creator,
		Community: info.Community,
		Active:    info.Active,
	}
	for _, p := range info.Participants {
		d.Participants = append(d.Participants, Participant{
			UserID: p.UserID, Terminal: p.Terminal, Community: p.Community,
		})
	}
	for _, m := range info.Media {
		d.Media = append(d.Media, MediaStream{
			Kind:      MediaKind(m.Type),
			Codec:     m.Codec,
			ClockRate: m.ClockRate,
			Topic:     m.Topic,
		})
	}
	return d
}

// Session is a handle on one collaboration session, bound to the client
// that created or joined it. It caches the most recent description the
// session server returned; Refresh re-fetches it.
type Session struct {
	c *core.Client

	mu   sync.Mutex
	info *xgsp.SessionInfo
}

// ID returns the session id.
func (s *Session) ID() string { return s.snapshot().ID }

// Name returns the session name.
func (s *Session) Name() string { return s.snapshot().Name }

// Details returns the cached session description.
func (s *Session) Details() SessionDetails { return detailsFromInfo(s.snapshot()) }

// Media lists the session's media channels.
func (s *Session) Media() []MediaStream { return s.Details().Media }

// Participants lists the session's members as of the last refresh.
func (s *Session) Participants() []Participant { return s.Details().Participants }

func (s *Session) snapshot() *xgsp.SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.info
}

func (s *Session) update(info *xgsp.SessionInfo) {
	if info == nil {
		return
	}
	s.mu.Lock()
	s.info = info
	s.mu.Unlock()
}

// Refresh re-fetches the session description from the session server.
func (s *Session) Refresh(ctx context.Context) error {
	info, err := s.c.XGSP.Lookup(ctx, s.ID())
	if err != nil {
		return wrapErr(err)
	}
	if info == nil {
		return tag(ErrSessionNotFound, errSessionID(s.ID()))
	}
	s.update(info)
	return nil
}

// Join adds this client to the session with a logical terminal name.
func (s *Session) Join(ctx context.Context, terminal string) error {
	info, err := s.c.XGSP.Join(ctx, s.ID(), terminal, nil)
	if err != nil {
		return wrapErr(err)
	}
	s.update(info)
	return nil
}

// Leave removes this client from the session.
func (s *Session) Leave(ctx context.Context) error {
	return wrapErr(s.c.XGSP.Leave(ctx, s.ID()))
}

// Terminate ends the session; only its creator may terminate.
func (s *Session) Terminate(ctx context.Context, reason string) error {
	return wrapErr(s.c.XGSP.Terminate(ctx, s.ID(), reason))
}

// InviteUser asks the session server to notify another user of an
// invitation to this session.
func (s *Session) InviteUser(ctx context.Context, userID, message string) error {
	return wrapErr(s.c.XGSP.Invite(ctx, s.ID(), userID, message))
}

// RequestFloor asks for the floor on a media channel. ErrFloorBusy
// reports that another participant holds it.
func (s *Session) RequestFloor(ctx context.Context, kind MediaKind) error {
	return wrapErr(s.c.XGSP.RequestFloor(ctx, s.ID(), xgsp.MediaType(kind)))
}

// ReleaseFloor returns the floor on a media channel.
func (s *Session) ReleaseFloor(ctx context.Context, kind MediaKind) error {
	return wrapErr(s.c.XGSP.ReleaseFloor(ctx, s.ID(), xgsp.MediaType(kind)))
}

// Send posts a chat message into the session's room.
func (s *Session) Send(ctx context.Context, body string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return wrapErr(s.c.Chat.Send(s.ID(), body))
}

// Chat joins the session's chat room and streams its messages until
// the room is closed. Delivery QoS is set with StreamOptions.
func (s *Session) Chat(ctx context.Context, opts ...StreamOption) (*ChatRoom, error) {
	sub, err := s.c.Chat.JoinRoom(ctx, s.ID(), ringDepth[ChatMessage](defaultChatBuffer, false, opts))
	if err != nil {
		return nil, wrapErr(err)
	}
	return newChatRoom(sub, s.c.Metrics, s.streamName("chat"), opts), nil
}

// streamName builds the per-stream metrics identity
// "<user>.<label>.<session>" under which drop gauges register.
func (s *Session) streamName(label string) string {
	return s.c.UserID() + "." + label + "." + s.ID()
}

// Sender returns a paced sender publishing onto one of the session's
// media channels.
func (s *Session) Sender(kind MediaKind) (*MediaSender, error) {
	stream, ok := s.stream(kind)
	if !ok {
		return nil, tag(ErrNoSuchMedia, errMediaKind(kind))
	}
	return newMediaSender(s.c, stream), nil
}

// Subscribe streams the session's media packets on one channel kind.
// Delivery QoS — buffer depth, drop policy, conflation (keyed by SSRC
// by default), lag notification — is set with StreamOptions.
func (s *Session) Subscribe(ctx context.Context, kind MediaKind, opts ...StreamOption) (*MediaSubscription, error) {
	stream, ok := s.stream(kind)
	if !ok {
		return nil, tag(ErrNoSuchMedia, errMediaKind(kind))
	}
	sub, err := s.subscribeStream(ctx, stream.Topic, ringDepth[*MediaPacket](defaultMediaBuffer, true, opts), opts)
	if err != nil {
		return nil, wrapErr(err)
	}
	return newMediaSubscription(sub, s.c.Metrics, s.streamName("media."+string(kind)), opts), nil
}

// subscribeStream opens the broker subscription behind a stream, depth
// deep (see ringDepth), switching to a replay subscription when the
// options ask for one. Replay requires the node to record exactly the
// subscribed pattern (see WithRecording).
func (s *Session) subscribeStream(ctx context.Context, pattern string, depth int, opts []StreamOption) (*broker.Subscription, error) {
	cfg := resolveStreamConfig(defaultMediaBuffer, opts)
	if cfg.replay {
		return s.c.BC.SubscribeReplay(ctx, pattern, cfg.replayFrom, depth)
	}
	return s.c.BC.SubscribeContext(ctx, pattern, depth)
}

// Events streams every raw broker event published on this session's
// topics — media, chat and signalling alike: the paper's "every
// modality is an event on one substrate" view, exposed for gateways,
// archival tools and debugging. Delivery QoS is set with StreamOptions.
//
// With WithReplayFrom or WithReplayFromEarliest the stream first
// delivers the session's recorded history, then live events, exactly
// once across the handoff; the node must record exactly this session's
// topic pattern ("/xgsp/session/<id>/#" — see WithRecording), and
// Stream.CaughtUp signals when history is drained.
func (s *Session) Events(ctx context.Context, opts ...StreamOption) (*Stream[Event], error) {
	pattern := xgsp.SessionTopic(s.ID(), "#")
	sub, err := s.subscribeStream(ctx, pattern, ringDepth[Event](defaultMediaBuffer, false, opts), opts)
	if err != nil {
		return nil, wrapErr(err)
	}
	return newStream(sub, s.c.Metrics, s.streamName("events"), defaultMediaBuffer, rawFromInternal, nil, opts), nil
}

func (s *Session) stream(kind MediaKind) (MediaStream, bool) {
	for _, m := range s.Details().Media {
		if m.Kind == kind {
			return m, true
		}
	}
	return MediaStream{}, false
}

type errMediaKind MediaKind

func (e errMediaKind) Error() string { return "no " + string(e) + " channel" }
