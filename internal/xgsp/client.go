package xgsp

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/broker"
	"github.com/globalmmcs/globalmmcs/internal/event"
)

// ErrTimeout is returned when the session server does not answer in time.
var ErrTimeout = errors.New("xgsp: request timed out")

// ErrClosed is returned by requests on a closed Client.
var ErrClosed = errors.New("xgsp: client closed")

// RequestTimeout bounds each request/response round trip when the
// caller's context carries no earlier deadline.
const RequestTimeout = 10 * time.Second

// StatusError is a non-OK XGSP response surfaced as an error. The public
// SDK maps Status values onto its sentinel error taxonomy.
type StatusError struct {
	// Op is the request kind that failed (e.g. "join-session").
	Op string
	// Status is the XGSP status code (StatusNotFound, StatusDenied, ...).
	Status string
	// Reason is the server's human-readable explanation.
	Reason string
}

// Error implements error.
func (e *StatusError) Error() string {
	return fmt.Sprintf("xgsp: %s: %s (%s)", e.Op, e.Status, e.Reason)
}

// Client is an XGSP endpoint: it issues requests to the session server
// over the broker and receives responses on its inbox topic. Gateways
// (SIP, H.323, Admire, streaming) and end-user applications embed one.
type Client struct {
	userID string
	bc     *broker.Client

	nextSeq atomic.Uint64

	mu      sync.Mutex
	waiters map[uint64]chan *Message
	invites chan *Notify

	// ctx ends with Close; it stops the inbox listener and fails
	// in-flight requests with ErrClosed.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// NewClient creates an XGSP client for userID over a dedicated broker
// client, and starts listening on the user's inbox topic. ctx bounds the
// inbox subscription handshake.
func NewClient(ctx context.Context, bc *broker.Client, userID string) (*Client, error) {
	if userID == "" {
		return nil, errors.New("xgsp: user id required")
	}
	c := &Client{
		userID:  userID,
		bc:      bc,
		waiters: make(map[uint64]chan *Message),
		invites: make(chan *Notify, 64),
	}
	sub, err := bc.SubscribeContext(ctx, InboxTopic(userID), 256)
	if err != nil {
		return nil, fmt.Errorf("xgsp: subscribing inbox: %w", err)
	}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.serveInbox(sub)
	}()
	return c, nil
}

// UserID returns the client identity.
func (c *Client) UserID() string { return c.userID }

// Invites delivers invitation notifications pushed to this user.
func (c *Client) Invites() <-chan *Notify { return c.invites }

// Close stops the inbox listener. The underlying broker client is owned
// by the caller and is not closed.
func (c *Client) Close() {
	c.cancel()
	c.wg.Wait()
}

func (c *Client) serveInbox(sub *broker.Subscription) {
	var buf []*event.Event
	for {
		var err error
		if buf, err = sub.RecvBatchContext(c.ctx, buf[:0], 0); err != nil {
			return
		}
		for _, e := range buf {
			c.handleInbox(e)
		}
		clear(buf)
	}
}

func (c *Client) handleInbox(e *event.Event) {
	msg, err := Unmarshal(e.Payload)
	if err != nil {
		return
	}
	switch {
	case msg.Response != nil:
		c.mu.Lock()
		ch := c.waiters[msg.Seq]
		delete(c.waiters, msg.Seq)
		c.mu.Unlock()
		if ch != nil {
			ch <- msg
		}
	case msg.Notify != nil && msg.Notify.Kind == NotifyInvited:
		select {
		case c.invites <- msg.Notify:
		default: // invitee not draining; drop rather than block the inbox
		}
	}
}

// Request sends an XGSP request and waits for the server's response
// until ctx is cancelled, the client closes, or RequestTimeout elapses.
func (c *Client) Request(ctx context.Context, msg *Message) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	seq := c.nextSeq.Add(1)
	msg.Seq = seq
	msg.From = c.userID
	b, err := Marshal(msg)
	if err != nil {
		return nil, err
	}
	ch := make(chan *Message, 1)
	c.mu.Lock()
	c.waiters[seq] = ch
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.waiters, seq)
		c.mu.Unlock()
	}()
	e := event.New(RequestTopic, event.KindControl, b)
	e.Reliable = true
	if err := c.bc.PublishEvent(e); err != nil {
		return nil, fmt.Errorf("xgsp: sending request: %w", err)
	}
	// The 10s cap applies only when the caller's context carries no
	// deadline of its own; a nil channel never fires.
	var timeout <-chan time.Time
	if _, hasDeadline := ctx.Deadline(); !hasDeadline {
		t := time.NewTimer(RequestTimeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case resp := <-ch:
		return resp.Response, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-c.ctx.Done():
		return nil, ErrClosed
	case <-timeout:
		return nil, ErrTimeout
	}
}

// statusErr converts a non-OK response into a *StatusError.
func statusErr(op string, r *Response) error {
	if r.Status == StatusOK {
		return nil
	}
	return &StatusError{Op: op, Status: r.Status, Reason: r.Reason}
}

// Create creates a session and returns its description.
func (c *Client) Create(ctx context.Context, req CreateSession) (*SessionInfo, error) {
	resp, err := c.Request(ctx, &Message{CreateSession: &req})
	if err != nil {
		return nil, err
	}
	if err := statusErr("create-session", resp); err != nil {
		return nil, err
	}
	return resp.Session, nil
}

// Join joins a session.
func (c *Client) Join(ctx context.Context, sessionID, terminal string, media []MediaDesc) (*SessionInfo, error) {
	resp, err := c.Request(ctx, &Message{JoinSession: &JoinSession{
		SessionID: sessionID, UserID: c.userID, Terminal: terminal, Media: media,
	}})
	if err != nil {
		return nil, err
	}
	if err := statusErr("join-session", resp); err != nil {
		return nil, err
	}
	return resp.Session, nil
}

// JoinAs joins a session on behalf of another user — the operation
// community gateways perform when translating foreign signalling into
// XGSP.
func (c *Client) JoinAs(ctx context.Context, sessionID, userID, terminal, community string, media []MediaDesc) (*SessionInfo, error) {
	resp, err := c.Request(ctx, &Message{JoinSession: &JoinSession{
		SessionID: sessionID, UserID: userID, Terminal: terminal,
		Community: community, Media: media,
	}})
	if err != nil {
		return nil, err
	}
	if err := statusErr("join-session", resp); err != nil {
		return nil, err
	}
	return resp.Session, nil
}

// LeaveAs removes another user from a session (gateway teardown).
func (c *Client) LeaveAs(ctx context.Context, sessionID, userID string) error {
	resp, err := c.Request(ctx, &Message{LeaveSession: &LeaveSession{
		SessionID: sessionID, UserID: userID,
	}})
	if err != nil {
		return err
	}
	return statusErr("leave-session", resp)
}

// Lookup fetches one session's info by id, or nil when absent.
func (c *Client) Lookup(ctx context.Context, sessionID string) (*SessionInfo, error) {
	list, err := c.List(ctx, true)
	if err != nil {
		return nil, err
	}
	for i := range list {
		if list[i].ID == sessionID {
			return &list[i], nil
		}
	}
	return nil, nil
}

// Leave leaves a session.
func (c *Client) Leave(ctx context.Context, sessionID string) error {
	resp, err := c.Request(ctx, &Message{LeaveSession: &LeaveSession{
		SessionID: sessionID, UserID: c.userID,
	}})
	if err != nil {
		return err
	}
	return statusErr("leave-session", resp)
}

// Terminate ends a session the client created.
func (c *Client) Terminate(ctx context.Context, sessionID, reason string) error {
	resp, err := c.Request(ctx, &Message{TerminateSession: &TerminateSession{
		SessionID: sessionID, Reason: reason,
	}})
	if err != nil {
		return err
	}
	return statusErr("terminate-session", resp)
}

// List returns the visible sessions.
func (c *Client) List(ctx context.Context, includeScheduled bool) ([]SessionInfo, error) {
	resp, err := c.Request(ctx, &Message{ListSessions: &ListSessions{IncludeScheduled: includeScheduled}})
	if err != nil {
		return nil, err
	}
	if err := statusErr("list-sessions", resp); err != nil {
		return nil, err
	}
	return resp.Sessions, nil
}

// Invite asks the server to invite another user to a session.
func (c *Client) Invite(ctx context.Context, sessionID, userID, message string) error {
	resp, err := c.Request(ctx, &Message{InviteUser: &InviteUser{
		SessionID: sessionID, UserID: userID, Message: message,
	}})
	if err != nil {
		return err
	}
	return statusErr("invite-user", resp)
}

// RequestFloor asks for the floor on a media channel.
func (c *Client) RequestFloor(ctx context.Context, sessionID string, media MediaType) error {
	resp, err := c.Request(ctx, &Message{FloorRequest: &FloorRequest{
		SessionID: sessionID, UserID: c.userID, Media: media,
	}})
	if err != nil {
		return err
	}
	return statusErr("floor-request", resp)
}

// ReleaseFloor returns the floor.
func (c *Client) ReleaseFloor(ctx context.Context, sessionID string, media MediaType) error {
	resp, err := c.Request(ctx, &Message{FloorRelease: &FloorRelease{
		SessionID: sessionID, UserID: c.userID, Media: media,
	}})
	if err != nil {
		return err
	}
	return statusErr("floor-release", resp)
}

// WatchControl subscribes to a session's control topic, delivering
// notifications until the subscription is cancelled.
func (c *Client) WatchControl(ctx context.Context, sessionID string) (*broker.Subscription, error) {
	return c.bc.SubscribeContext(ctx, SessionTopic(sessionID, string(MediaControl)), 256)
}

// ParseNotify decodes a control-topic event into a Notify.
func ParseNotify(e *event.Event) (*Notify, error) {
	msg, err := Unmarshal(e.Payload)
	if err != nil {
		return nil, err
	}
	if msg.Notify == nil {
		return nil, errors.New("xgsp: control event is not a notification")
	}
	return msg.Notify, nil
}
