package globalmmcs

import (
	"context"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/core"
	"github.com/globalmmcs/globalmmcs/internal/xgsp"
)

// Client is a user's collaboration endpoint: session control, chat,
// presence and media over one broker connection. Create one per user
// with Server.Client.
type Client struct {
	c *core.Client
}

// UserID returns the client identity.
func (c *Client) UserID() string { return c.c.UserID() }

// Close releases the client and its broker connection.
func (c *Client) Close() error { return c.c.Close() }

// CreateSession creates a session and returns a handle bound to this
// client. With no options the session is ad-hoc and active immediately;
// WithSchedule makes it a scheduled session. The creator is not a
// participant until it joins.
func (c *Client) CreateSession(ctx context.Context, name string, opts ...SessionOption) (*Session, error) {
	req := xgsp.CreateSession{Name: name}
	for _, opt := range opts {
		opt(&req)
	}
	info, err := c.c.XGSP.Create(ctx, req)
	if err != nil {
		return nil, wrapErr(err)
	}
	return &Session{c: c.c, info: info}, nil
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
	info, err := c.c.Join(ctx, sessionID, terminal)
	if err != nil {
		return nil, wrapErr(err)
	}
	return &Session{c: c.c, info: info}, nil
}

// Sessions lists the visible sessions, including scheduled ones that
// have not yet activated.
func (c *Client) Sessions(ctx context.Context) ([]SessionDetails, error) {
	list, err := c.c.XGSP.List(ctx, true)
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
	info, err := c.c.XGSP.Lookup(ctx, sessionID)
	if err != nil {
		return nil, wrapErr(err)
	}
	if info == nil {
		return nil, tag(ErrSessionNotFound, errSessionID(sessionID))
	}
	return &Session{c: c.c, info: info}, nil
}

// SetPresence publishes the user's presence state into a community.
func (c *Client) SetPresence(ctx context.Context, community string, status PresenceStatus, note string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return wrapErr(c.c.Chat.SetPresence(community, internalStatus(status), note))
}

// WatchPresence streams every presence update of a community. Delivery
// QoS is set with StreamOptions.
func (c *Client) WatchPresence(ctx context.Context, community string, opts ...StreamOption) (*PresenceWatch, error) {
	sub, err := c.c.Chat.WatchCommunity(ctx, community, ringDepth[Presence](defaultChatBuffer, false, opts))
	if err != nil {
		return nil, wrapErr(err)
	}
	name := c.c.UserID() + ".presence." + community
	return newPresenceWatch(sub, c.c.Metrics, name, opts), nil
}

type errSessionID string

func (e errSessionID) Error() string { return "no session " + string(e) }
