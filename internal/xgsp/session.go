package xgsp

import (
	"fmt"
	"time"
)

// Member is one participant of a session.
type Member struct {
	UserID    string
	Terminal  string
	Community string
	Media     []MediaDesc
	JoinedAt  time.Time
}

// Session is the server-side state of one XGSP session.
type Session struct {
	ID          string
	Name        string
	Description string
	Creator     string
	Community   string
	Media       []MediaDesc
	CreatedAt   time.Time

	// Scheduling (hybrid collaboration pattern). Zero Start means the
	// session is ad-hoc and active immediately.
	Start  time.Time
	End    time.Time
	Active bool

	Members map[string]*Member
	// floor maps media type → current holder ("" = free).
	floor map[MediaType]string
}

func newSession(id string, req *CreateSession, creator string, now time.Time) (*Session, error) {
	if req.Name == "" {
		return nil, fmt.Errorf("xgsp: session name required")
	}
	s := &Session{
		ID:          id,
		Name:        req.Name,
		Description: req.Description,
		Creator:     creator,
		Community:   req.Community,
		CreatedAt:   now,
		Members:     make(map[string]*Member),
		floor:       make(map[MediaType]string),
	}
	media := req.Media
	if len(media) == 0 {
		media = []MediaDesc{
			{Type: MediaAudio, Codec: "PCMU", ClockRate: 8000},
			{Type: MediaVideo, Codec: "H261", ClockRate: 90000},
			{Type: MediaChat},
		}
	}
	for _, m := range media {
		m.Topic = SessionTopic(id, string(m.Type))
		s.Media = append(s.Media, m)
	}
	if req.Start != "" {
		start, err := ParseTime(req.Start)
		if err != nil {
			return nil, err
		}
		end := start.Add(2 * time.Hour)
		if req.End != "" {
			if end, err = ParseTime(req.End); err != nil {
				return nil, err
			}
		}
		if !end.After(start) {
			return nil, fmt.Errorf("xgsp: session end %v not after start %v", end, start)
		}
		s.Start, s.End = start, end
		s.Active = !now.Before(start) && now.Before(end)
	} else {
		s.Active = true
	}
	return s, nil
}

// ControlTopic returns the session's control/notification topic.
func (s *Session) ControlTopic() string { return SessionTopic(s.ID, string(MediaControl)) }

// Info snapshots the session for responses and notifications.
func (s *Session) Info() *SessionInfo {
	info := &SessionInfo{
		ID:           s.ID,
		Name:         s.Name,
		Creator:      s.Creator,
		Community:    s.Community,
		Active:       s.Active,
		Media:        append([]MediaDesc(nil), s.Media...),
		ControlTopic: s.ControlTopic(),
	}
	if !s.Start.IsZero() {
		info.Start = FormatTime(s.Start)
		info.End = FormatTime(s.End)
	}
	// Participants is the source of truth; the flat Members list is
	// derived from it for the web frontend and older consumers.
	for id := range s.Members {
		info.Members = append(info.Members, id)
	}
	sortStrings(info.Members)
	for _, id := range info.Members {
		m := s.Members[id]
		info.Participants = append(info.Participants, MemberInfo{
			UserID: m.UserID, Terminal: m.Terminal, Community: m.Community,
		})
	}
	return info
}

// join adds a member; duplicate joins update the terminal binding.
func (s *Session) join(req *JoinSession, now time.Time) *Member {
	m := &Member{
		UserID:    req.UserID,
		Terminal:  req.Terminal,
		Community: req.Community,
		Media:     req.Media,
		JoinedAt:  now,
	}
	s.Members[req.UserID] = m
	return m
}

// leave removes a member and releases any floors held.
func (s *Session) leave(userID string) bool {
	if _, ok := s.Members[userID]; !ok {
		return false
	}
	delete(s.Members, userID)
	for media, holder := range s.floor {
		if holder == userID {
			delete(s.floor, media)
		}
	}
	return true
}

// requestFloor grants the floor if free or already held by the
// requester; returns the holder after the call and whether granted.
func (s *Session) requestFloor(userID string, media MediaType) (holder string, granted bool) {
	cur, ok := s.floor[media]
	if !ok || cur == userID {
		s.floor[media] = userID
		return userID, true
	}
	return cur, false
}

// releaseFloor frees the floor if held by userID.
func (s *Session) releaseFloor(userID string, media MediaType) bool {
	if s.floor[media] != userID {
		return false
	}
	delete(s.floor, media)
	return true
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
