// Package directory implements the XGSP naming and directory service of
// §2.2: the directory of user accounts and media terminals (binding users
// to the endpoints they attend with) and the directory of communities and
// their collaboration servers. The root package's XGSP web server
// exposes it as a WSDL-CI web service.
package directory

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// TerminalKind enumerates the endpoint types Global-MMCS admits.
type TerminalKind string

// Terminal kinds.
const (
	TerminalH323   TerminalKind = "h323"
	TerminalSIP    TerminalKind = "sip"
	TerminalMBONE  TerminalKind = "mbone"
	TerminalPlayer TerminalKind = "player" // Real / Windows Media players
	TerminalRTP    TerminalKind = "rtp"    // raw RTP client
)

// User is an account in the user directory.
type User struct {
	ID        string
	Name      string
	Community string
	Email     string
	// AudioCapable/VideoCapable summarise the user's media capability
	// preferences.
	AudioCapable bool
	VideoCapable bool
}

// Terminal is a media endpoint bound to a user.
type Terminal struct {
	ID      string
	UserID  string
	Kind    TerminalKind
	Address string
	// Active marks the terminal the user is currently reachable on.
	Active bool
	// RegisteredAt records the binding time.
	RegisteredAt time.Time
}

// Community is an autonomous collaboration area with its own control and
// media servers.
type Community struct {
	Name string
	// ControlEndpoint is the community's WSDL-CI SOAP URL.
	ControlEndpoint string
	// MediaServers lists the community's media server addresses.
	MediaServers []string
	// Description is free text.
	Description string
}

// Store errors.
var (
	ErrNotFound = errors.New("directory: not found")
	ErrExists   = errors.New("directory: already exists")
)

// Store is the in-memory directory. Safe for concurrent use. The zero
// value is ready to use.
type Store struct {
	mu          sync.RWMutex
	users       map[string]User
	terminals   map[string]Terminal
	communities map[string]Community
}

func (s *Store) init() {
	if s.users == nil {
		s.users = make(map[string]User)
		s.terminals = make(map[string]Terminal)
		s.communities = make(map[string]Community)
	}
}

// AddUser registers a new user.
func (s *Store) AddUser(u User) error {
	if u.ID == "" {
		return errors.New("directory: user id required")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.init()
	if _, ok := s.users[u.ID]; ok {
		return fmt.Errorf("%w: user %s", ErrExists, u.ID)
	}
	s.users[u.ID] = u
	return nil
}

// User looks up a user by id.
func (s *Store) User(id string) (User, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	u, ok := s.users[id]
	if !ok {
		return User{}, fmt.Errorf("%w: user %s", ErrNotFound, id)
	}
	return u, nil
}

// BindTerminal registers a terminal for an existing user. Marking it
// active deactivates the user's other terminals (one active endpoint per
// user).
func (s *Store) BindTerminal(t Terminal) error {
	if t.ID == "" || t.UserID == "" {
		return errors.New("directory: terminal id and user required")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.init()
	if _, ok := s.users[t.UserID]; !ok {
		return fmt.Errorf("%w: user %s", ErrNotFound, t.UserID)
	}
	if t.RegisteredAt.IsZero() {
		t.RegisteredAt = time.Now()
	}
	if t.Active {
		for id, other := range s.terminals {
			if other.UserID == t.UserID && other.Active {
				other.Active = false
				s.terminals[id] = other
			}
		}
	}
	s.terminals[t.ID] = t
	return nil
}

// Terminal looks up a terminal by id.
func (s *Store) Terminal(id string) (Terminal, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.terminals[id]
	if !ok {
		return Terminal{}, fmt.Errorf("%w: terminal %s", ErrNotFound, id)
	}
	return t, nil
}

// AddCommunity registers a community.
func (s *Store) AddCommunity(c Community) error {
	if c.Name == "" {
		return errors.New("directory: community name required")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.init()
	if _, ok := s.communities[c.Name]; ok {
		return fmt.Errorf("%w: community %s", ErrExists, c.Name)
	}
	s.communities[c.Name] = c
	return nil
}

// Community looks up a community by name.
func (s *Store) Community(name string) (Community, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.communities[name]
	if !ok {
		return Community{}, fmt.Errorf("%w: community %s", ErrNotFound, name)
	}
	return c, nil
}

// Communities lists all communities sorted by name.
func (s *Store) Communities() []Community {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Community, 0, len(s.communities))
	for _, c := range s.communities {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
