package globalmmcs

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/broker"
	"github.com/globalmmcs/globalmmcs/internal/im"
	"github.com/globalmmcs/globalmmcs/internal/metrics"
	"github.com/globalmmcs/globalmmcs/internal/xgsp"
)

// Client is a user's collaboration endpoint: session control, chat,
// presence and media over one broker connection. Server.Client attaches
// one in-process; Dial connects one from a remote process.
type Client struct {
	userID string
	bc     *broker.Client
	xgsp   *xgsp.Client
	chat   *im.Chatter
	// reg receives the per-stream delivery gauges of the client's
	// streams.
	reg *metrics.Registry
}

// Dial connects a collaboration client for a user to a broker network
// — a Server's broker listeners (Server.Broker().Addrs) or brokers
// meshed with one — and returns the same Client that Server.Client
// does. The client survives broker restarts, drains and network cuts:
// it redials the URLs in turn with backoff, resumes its broker session
// where the old conn died when the broker parks sessions (see
// WithSessionLinger), and re-subscribes when the resume is refused.
// While the link is down up to 256 publishes are buffered and sent in
// order after the reconnect; past that, calls fail with ErrConnLost.
// ctx bounds the client's setup once connected; the TCP connect itself
// is not bounded by ctx.
func Dial(ctx context.Context, userID string, urls []string) (*Client, error) {
	if err := ctx.Err(); err != nil {
		return nil, wrapErr(err)
	}
	if userID == "" || len(urls) == 0 {
		return nil, tag(ErrInvalidRequest, errors.New("globalmmcs: Dial needs a user id and a broker URL"))
	}
	bc, err := broker.DialResilient(broker.ResilientConfig{URLs: urls, ID: brokerID(userID)})
	if err != nil {
		return nil, wrapErr(err)
	}
	c, err := newClient(ctx, bc, userID, nil)
	return c, wrapErr(err)
}

// brokerID is a user's client identity on the broker, the same for a
// dialed and an in-process client.
func brokerID(userID string) string { return "user-" + userID }

// newClient wraps an attached broker client into a collaboration
// client. It owns bc: on failure bc is closed.
func newClient(ctx context.Context, bc *broker.Client, userID string, reg *metrics.Registry) (*Client, error) {
	xc, err := xgsp.NewClient(ctx, bc, userID)
	if err != nil {
		_ = bc.Close()
		return nil, fmt.Errorf("globalmmcs: xgsp client: %w", err)
	}
	chat, err := im.NewChatter(bc, userID)
	if err != nil {
		xc.Close()
		_ = bc.Close()
		return nil, fmt.Errorf("globalmmcs: chatter: %w", err)
	}
	return &Client{userID: userID, bc: bc, xgsp: xc, chat: chat, reg: reg}, nil
}

// UserID returns the client identity.
func (c *Client) UserID() string { return c.userID }

// ConnState is a client's broker link state.
type ConnState int

// Link states. An in-process client only moves Connected → Closed; a
// dialed one cycles Connected ↔ Reconnecting until closed.
const (
	StateConnected ConnState = iota + 1
	StateReconnecting
	StateClosed
)

// String implements fmt.Stringer.
func (s ConnState) String() string { return broker.ConnState(s).String() }

// ConnState reports the client's current link state.
func (c *Client) ConnState() ConnState { return ConnState(c.bc.ConnState()) }

// Close releases the client and its broker connection.
func (c *Client) Close() error {
	c.xgsp.Close()
	return c.bc.Close()
}

// CreateSession creates a session and returns a handle bound to this
// client. With no options the session is ad-hoc and active immediately;
// WithSchedule makes it a scheduled session. The creator is not a
// participant until it joins.
func (c *Client) CreateSession(ctx context.Context, name string, opts ...SessionOption) (*Session, error) {
	req := xgsp.CreateSession{Name: name}
	for _, opt := range opts {
		opt(&req)
	}
	info, err := c.xgsp.Create(ctx, req)
	if err != nil {
		return nil, wrapErr(err)
	}
	return &Session{c: c, info: info}, nil
}

// SessionOption configures a session at CreateSession.
type SessionOption func(*xgsp.CreateSession)

// WithDescription attaches a free-form description to the session.
func WithDescription(desc string) SessionOption {
	return func(r *xgsp.CreateSession) { r.Description = desc }
}

// WithCommunity tags the session with its home community.
func WithCommunity(community string) SessionOption {
	return func(r *xgsp.CreateSession) { r.Community = community }
}

// WithSchedule makes the session scheduled: it activates at start and
// expires at end — the paper's hybrid collaboration pattern. Joining
// outside the active window fails with ErrSessionNotActive.
func WithSchedule(start, end time.Time) SessionOption {
	return func(r *xgsp.CreateSession) {
		r.Start = xgsp.FormatTime(start)
		r.End = xgsp.FormatTime(end)
	}
}

// Join joins a session by id with a logical terminal name and returns a
// handle bound to this client.
func (c *Client) Join(ctx context.Context, sessionID, terminal string) (*Session, error) {
	info, err := c.xgsp.Join(ctx, sessionID, terminal, nil)
	if err != nil {
		return nil, wrapErr(err)
	}
	return &Session{c: c, info: info}, nil
}

// Sessions lists the visible sessions, including scheduled ones that
// have not yet activated.
func (c *Client) Sessions(ctx context.Context) ([]SessionDetails, error) {
	list, err := c.xgsp.List(ctx, true)
	if err != nil {
		return nil, wrapErr(err)
	}
	out := make([]SessionDetails, len(list))
	for i := range list {
		out[i] = detailsFromInfo(&list[i])
	}
	return out, nil
}

// Session returns a handle for an existing session without joining it.
func (c *Client) Session(ctx context.Context, sessionID string) (*Session, error) {
	info, err := c.xgsp.Lookup(ctx, sessionID)
	if err != nil {
		return nil, wrapErr(err)
	}
	if info == nil {
		return nil, tag(ErrSessionNotFound, errSessionID(sessionID))
	}
	return &Session{c: c, info: info}, nil
}

// SetPresence publishes the user's presence state into a community.
func (c *Client) SetPresence(ctx context.Context, community string, status PresenceStatus, note string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return wrapErr(c.chat.SetPresence(community, internalStatus(status), note))
}

// WatchPresence streams every presence update of a community. Delivery
// QoS is set with StreamOptions.
func (c *Client) WatchPresence(ctx context.Context, community string, opts ...StreamOption) (*PresenceWatch, error) {
	cfg, err := resolveStreamConfig(defaultChatBuffer, opts)
	if err != nil {
		return nil, err
	}
	sub, err := c.chat.WatchCommunity(ctx, community, cfg.buffer)
	if err != nil {
		return nil, wrapErr(err)
	}
	name := c.userID + ".presence." + community
	return newPresenceWatch(sub, c.reg, name, cfg), nil
}

type errSessionID string

func (e errSessionID) Error() string { return "no session " + string(e) }
