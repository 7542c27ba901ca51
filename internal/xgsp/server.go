package xgsp

import (
	"fmt"
	"sync"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/broker"
	"github.com/globalmmcs/globalmmcs/internal/clock"
	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/metrics"
)

// ServerConfig parameterises the XGSP session server.
type ServerConfig struct {
	// Clock drives scheduled-session activation; nil uses the system
	// clock.
	Clock clock.Clock
	// Metrics receives server counters; nil allocates a private registry.
	Metrics *metrics.Registry

	// schedulerTick is how often scheduled sessions are checked for
	// activation/expiry. Default 500ms; a field only so this package's
	// tests can shrink it.
	schedulerTick time.Duration
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.Clock == nil {
		c.Clock = clock.System{}
	}
	if c.schedulerTick <= 0 {
		c.schedulerTick = 500 * time.Millisecond
	}
	if c.Metrics == nil {
		c.Metrics = &metrics.Registry{}
	}
	return c
}

// Server is the XGSP session server: it owns session state, translates
// requests into broker topics, and emits membership/floor notifications —
// the "XGSP Session Server" box of the paper's Figure 2.
type Server struct {
	cfg    ServerConfig
	client *broker.Client

	mu       sync.Mutex
	sessions map[string]*Session
	nextID   uint64

	wg   sync.WaitGroup
	done chan struct{}
	once sync.Once
}

// NewServer attaches a session server to the broker via client. The
// client must be dedicated to this server. Start must be called next.
func NewServer(client *broker.Client, cfg ServerConfig) *Server {
	return &Server{
		cfg:      cfg.withDefaults(),
		client:   client,
		sessions: make(map[string]*Session),
		done:     make(chan struct{}),
	}
}

// Start subscribes to the request topic and launches the scheduler.
func (s *Server) Start() error {
	sub, err := s.client.Subscribe(RequestTopic, 1024)
	if err != nil {
		return fmt.Errorf("xgsp: subscribing to requests: %w", err)
	}
	s.wg.Add(2)
	go func() {
		defer s.wg.Done()
		s.serveRequests(sub)
	}()
	go func() {
		defer s.wg.Done()
		s.runScheduler()
	}()
	return nil
}

// Stop shuts the server down and waits for its goroutines.
func (s *Server) Stop() {
	s.once.Do(func() { close(s.done) })
	s.client.Close()
	s.wg.Wait()
}

// serveRequests handles requests until Stop closes the client, which
// closes sub.
func (s *Server) serveRequests(sub *broker.Subscription) {
	var buf []*event.Event
	for {
		var ok bool
		if buf, ok = sub.RecvBatch(buf[:0], 0); !ok {
			return
		}
		for _, e := range buf {
			s.handleRequest(e)
		}
		clear(buf)
	}
}

func (s *Server) handleRequest(e *event.Event) {
	s.cfg.Metrics.Counter("xgsp.requests").Inc()
	msg, err := Unmarshal(e.Payload)
	if err != nil {
		s.cfg.Metrics.Counter("xgsp.bad_requests").Inc()
		return
	}
	if msg.From == "" {
		s.cfg.Metrics.Counter("xgsp.bad_requests").Inc()
		return
	}
	resp := s.dispatch(msg)
	resp.Seq = msg.Seq
	s.respond(msg.From, resp)
}

func (s *Server) dispatch(msg *Message) *Message {
	switch {
	case msg.CreateSession != nil:
		return s.handleCreate(msg)
	case msg.TerminateSession != nil:
		return s.handleTerminate(msg)
	case msg.JoinSession != nil:
		return s.handleJoin(msg)
	case msg.LeaveSession != nil:
		return s.handleLeave(msg)
	case msg.ListSessions != nil:
		return s.handleList(msg)
	case msg.InviteUser != nil:
		return s.handleInvite(msg)
	case msg.FloorRequest != nil:
		return s.handleFloorRequest(msg)
	case msg.FloorRelease != nil:
		return s.handleFloorRelease(msg)
	default:
		return errorResponse(StatusBadRequest, "unsupported request "+msg.Kind())
	}
}

func errorResponse(status, reason string) *Message {
	return &Message{Response: &Response{Status: status, Reason: reason}}
}

func okResponse(info *SessionInfo) *Message {
	return &Message{Response: &Response{Status: StatusOK, Session: info}}
}

func (s *Server) handleCreate(msg *Message) *Message {
	now := s.cfg.Clock.Now()
	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("s%d", s.nextID)
	sess, err := newSession(id, msg.CreateSession, msg.From, now)
	if err != nil {
		s.mu.Unlock()
		return errorResponse(StatusBadRequest, err.Error())
	}
	s.sessions[id] = sess
	info := sess.Info()
	active := sess.Active
	s.mu.Unlock()
	s.cfg.Metrics.Counter("xgsp.sessions_created").Inc()
	if active {
		s.notifySession(info.ID, &Notify{Kind: NotifyActivated, SessionID: info.ID, Session: info})
	}
	return okResponse(info)
}

func (s *Server) handleTerminate(msg *Message) *Message {
	req := msg.TerminateSession
	s.mu.Lock()
	sess, ok := s.sessions[req.SessionID]
	if !ok {
		s.mu.Unlock()
		return errorResponse(StatusNotFound, "no session "+req.SessionID)
	}
	if sess.Creator != msg.From {
		s.mu.Unlock()
		return errorResponse(StatusDenied, "only the creator may terminate")
	}
	delete(s.sessions, req.SessionID)
	info := sess.Info()
	s.mu.Unlock()
	s.cfg.Metrics.Counter("xgsp.sessions_terminated").Inc()
	s.notifySession(req.SessionID, &Notify{
		Kind: NotifyTerminated, SessionID: req.SessionID, Reason: req.Reason, Session: info,
	})
	return okResponse(info)
}

func (s *Server) handleJoin(msg *Message) *Message {
	req := msg.JoinSession
	if req.UserID == "" {
		return errorResponse(StatusBadRequest, "user required")
	}
	now := s.cfg.Clock.Now()
	s.mu.Lock()
	sess, ok := s.sessions[req.SessionID]
	if !ok {
		s.mu.Unlock()
		return errorResponse(StatusNotFound, "no session "+req.SessionID)
	}
	if !sess.Active {
		s.mu.Unlock()
		return errorResponse(StatusNotScheduled, "session not active yet")
	}
	sess.join(req, now)
	info := sess.Info()
	s.mu.Unlock()
	s.cfg.Metrics.Counter("xgsp.joins").Inc()
	s.notifySession(req.SessionID, &Notify{Kind: NotifyJoined, SessionID: req.SessionID, UserID: req.UserID})
	return okResponse(info)
}

func (s *Server) handleLeave(msg *Message) *Message {
	req := msg.LeaveSession
	s.mu.Lock()
	sess, ok := s.sessions[req.SessionID]
	if !ok {
		s.mu.Unlock()
		return errorResponse(StatusNotFound, "no session "+req.SessionID)
	}
	left := sess.leave(req.UserID)
	info := sess.Info()
	s.mu.Unlock()
	if !left {
		return errorResponse(StatusNotMember, "user not in session")
	}
	s.cfg.Metrics.Counter("xgsp.leaves").Inc()
	s.notifySession(req.SessionID, &Notify{Kind: NotifyLeft, SessionID: req.SessionID, UserID: req.UserID})
	return okResponse(info)
}

func (s *Server) handleList(msg *Message) *Message {
	includeScheduled := msg.ListSessions.IncludeScheduled
	s.mu.Lock()
	var infos []SessionInfo
	for _, sess := range s.sessions {
		if sess.Active || includeScheduled {
			infos = append(infos, *sess.Info())
		}
	}
	s.mu.Unlock()
	sortSessionInfos(infos)
	return &Message{Response: &Response{Status: StatusOK, Sessions: infos}}
}

func (s *Server) handleInvite(msg *Message) *Message {
	req := msg.InviteUser
	s.mu.Lock()
	sess, ok := s.sessions[req.SessionID]
	var info *SessionInfo
	if ok {
		info = sess.Info()
	}
	s.mu.Unlock()
	if !ok {
		return errorResponse(StatusNotFound, "no session "+req.SessionID)
	}
	s.cfg.Metrics.Counter("xgsp.invites").Inc()
	// Invitations land on the invitee's inbox.
	s.sendTo(InboxTopic(req.UserID), &Message{Notify: &Notify{
		Kind: NotifyInvited, SessionID: req.SessionID, UserID: req.UserID,
		Reason: req.Message, Session: info,
	}})
	return okResponse(info)
}

func (s *Server) handleFloorRequest(msg *Message) *Message {
	req := msg.FloorRequest
	s.mu.Lock()
	sess, ok := s.sessions[req.SessionID]
	if !ok {
		s.mu.Unlock()
		return errorResponse(StatusNotFound, "no session "+req.SessionID)
	}
	if _, member := sess.Members[req.UserID]; !member {
		s.mu.Unlock()
		return errorResponse(StatusDenied, "not a member")
	}
	holder, granted := sess.requestFloor(req.UserID, req.Media)
	s.mu.Unlock()
	if !granted {
		return errorResponse(StatusFloorBusy, "floor held by "+holder)
	}
	s.notifySession(req.SessionID, &Notify{
		Kind: NotifyFloorGranted, SessionID: req.SessionID, UserID: req.UserID, Media: req.Media,
	})
	return okResponse(nil)
}

func (s *Server) handleFloorRelease(msg *Message) *Message {
	req := msg.FloorRelease
	s.mu.Lock()
	sess, ok := s.sessions[req.SessionID]
	if !ok {
		s.mu.Unlock()
		return errorResponse(StatusNotFound, "no session "+req.SessionID)
	}
	released := sess.releaseFloor(req.UserID, req.Media)
	s.mu.Unlock()
	if !released {
		return errorResponse(StatusConflict, "floor not held by "+req.UserID)
	}
	s.notifySession(req.SessionID, &Notify{
		Kind: NotifyFloorReleased, SessionID: req.SessionID, UserID: req.UserID, Media: req.Media,
	})
	return okResponse(nil)
}

// runScheduler activates and expires scheduled sessions.
func (s *Server) runScheduler() {
	for {
		select {
		case <-s.done:
			return
		case <-s.cfg.Clock.After(s.cfg.schedulerTick):
			s.tick()
		}
	}
}

func (s *Server) tick() {
	now := s.cfg.Clock.Now()
	type change struct {
		id     string
		notify *Notify
	}
	var changes []change
	s.mu.Lock()
	for id, sess := range s.sessions {
		if sess.Start.IsZero() {
			continue
		}
		switch {
		case !sess.Active && !now.Before(sess.Start) && now.Before(sess.End):
			sess.Active = true
			changes = append(changes, change{id, &Notify{
				Kind: NotifyActivated, SessionID: id, Session: sess.Info(),
			}})
		case sess.Active && !now.Before(sess.End):
			delete(s.sessions, id)
			changes = append(changes, change{id, &Notify{
				Kind: NotifyTerminated, SessionID: id, Reason: "scheduled end", Session: sess.Info(),
			}})
		}
	}
	s.mu.Unlock()
	for _, c := range changes {
		s.notifySession(c.id, c.notify)
	}
}

// notifySession publishes a notification on the session control topic.
func (s *Server) notifySession(sessionID string, n *Notify) {
	s.sendTo(SessionTopic(sessionID, string(MediaControl)), &Message{Notify: n})
}

func (s *Server) sendTo(topic string, msg *Message) {
	b, err := Marshal(msg)
	if err != nil {
		s.cfg.Metrics.Counter("xgsp.marshal_errors").Inc()
		return
	}
	e := event.New(topic, event.KindControl, b)
	e.Reliable = true
	if err := s.client.PublishEvent(e); err != nil {
		s.cfg.Metrics.Counter("xgsp.publish_errors").Inc()
	}
}

func (s *Server) respond(to string, resp *Message) {
	s.sendTo(InboxTopic(to), resp)
}

// SessionCount returns the number of sessions (active + scheduled).
func (s *Server) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// Lookup returns a snapshot of one session, or nil.
func (s *Server) Lookup(id string) *SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess, ok := s.sessions[id]; ok {
		return sess.Info()
	}
	return nil
}

func sortSessionInfos(infos []SessionInfo) {
	for i := 1; i < len(infos); i++ {
		for j := i; j > 0 && infos[j].ID < infos[j-1].ID; j-- {
			infos[j], infos[j-1] = infos[j-1], infos[j]
		}
	}
}
