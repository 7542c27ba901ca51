// Package directory implements the XGSP naming and directory service of
// §2.2: the directory of user accounts and media terminals (binding users
// to the endpoints they attend with) and the directory of communities and
// their collaboration servers. State can be exported to and imported from
// XML, and the store is exposed as a WSDL-CI web service by the root
// package's XGSP web server.
package directory

import (
	"encoding/xml"
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
	ID        string `xml:"id,attr"`
	Name      string `xml:"name,attr"`
	Community string `xml:"community,attr,omitempty"`
	Email     string `xml:"email,attr,omitempty"`
	// AudioCapable/VideoCapable summarise the user's media capability
	// preferences.
	AudioCapable bool `xml:"audio,attr,omitempty"`
	VideoCapable bool `xml:"video,attr,omitempty"`
}

// Terminal is a media endpoint bound to a user.
type Terminal struct {
	ID      string       `xml:"id,attr"`
	UserID  string       `xml:"user,attr"`
	Kind    TerminalKind `xml:"kind,attr"`
	Address string       `xml:"address,attr"`
	// Active marks the terminal the user is currently reachable on.
	Active bool `xml:"active,attr,omitempty"`
	// RegisteredAt records the binding time.
	RegisteredAt time.Time `xml:"registered,attr,omitempty"`
}

// Community is an autonomous collaboration area with its own control and
// media servers.
type Community struct {
	Name string `xml:"name,attr"`
	// ControlEndpoint is the community's WSDL-CI SOAP URL.
	ControlEndpoint string `xml:"control,attr,omitempty"`
	// MediaServers lists the community's media server addresses.
	MediaServers []string `xml:"media-server,omitempty"`
	// Description is free text.
	Description string `xml:",chardata"`
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

// UpdateUser replaces an existing user record.
func (s *Store) UpdateUser(u User) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.init()
	if _, ok := s.users[u.ID]; !ok {
		return fmt.Errorf("%w: user %s", ErrNotFound, u.ID)
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

// RemoveUser deletes a user and all terminal bindings.
func (s *Store) RemoveUser(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.users[id]; !ok {
		return fmt.Errorf("%w: user %s", ErrNotFound, id)
	}
	delete(s.users, id)
	for tid, t := range s.terminals {
		if t.UserID == id {
			delete(s.terminals, tid)
		}
	}
	return nil
}

// Users lists all users sorted by id.
func (s *Store) Users() []User {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]User, 0, len(s.users))
	for _, u := range s.users {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
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

// ActiveTerminal returns the user's currently active terminal.
func (s *Store) ActiveTerminal(userID string) (Terminal, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, t := range s.terminals {
		if t.UserID == userID && t.Active {
			return t, nil
		}
	}
	return Terminal{}, fmt.Errorf("%w: no active terminal for %s", ErrNotFound, userID)
}

// UserTerminals lists a user's terminals sorted by id.
func (s *Store) UserTerminals(userID string) []Terminal {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Terminal
	for _, t := range s.terminals {
		if t.UserID == userID {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// UnbindTerminal removes a terminal.
func (s *Store) UnbindTerminal(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.terminals[id]; !ok {
		return fmt.Errorf("%w: terminal %s", ErrNotFound, id)
	}
	delete(s.terminals, id)
	return nil
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

// RemoveCommunity deletes a community.
func (s *Store) RemoveCommunity(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.communities[name]; !ok {
		return fmt.Errorf("%w: community %s", ErrNotFound, name)
	}
	delete(s.communities, name)
	return nil
}

// Snapshot is the XML import/export form of the directory.
type Snapshot struct {
	XMLName     xml.Name    `xml:"directory"`
	Users       []User      `xml:"users>user"`
	Terminals   []Terminal  `xml:"terminals>terminal"`
	Communities []Community `xml:"communities>community"`
}

// Export serialises the directory to XML.
func (s *Store) Export() ([]byte, error) {
	snap := Snapshot{Users: s.Users(), Communities: s.Communities()}
	s.mu.RLock()
	for _, t := range s.terminals {
		snap.Terminals = append(snap.Terminals, t)
	}
	s.mu.RUnlock()
	sort.Slice(snap.Terminals, func(i, j int) bool { return snap.Terminals[i].ID < snap.Terminals[j].ID })
	return xml.MarshalIndent(snap, "", "  ")
}

// Import merges an XML snapshot into the store, replacing records with
// matching ids.
func (s *Store) Import(b []byte) error {
	var snap Snapshot
	if err := xml.Unmarshal(b, &snap); err != nil {
		return fmt.Errorf("directory: parsing snapshot: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.init()
	for _, u := range snap.Users {
		if u.ID == "" {
			return errors.New("directory: snapshot user without id")
		}
		s.users[u.ID] = u
	}
	for _, t := range snap.Terminals {
		if t.ID == "" {
			return errors.New("directory: snapshot terminal without id")
		}
		s.terminals[t.ID] = t
	}
	for _, c := range snap.Communities {
		if c.Name == "" {
			return errors.New("directory: snapshot community without name")
		}
		s.communities[c.Name] = c
	}
	return nil
}

// Counts returns (users, terminals, communities) sizes.
func (s *Store) Counts() (int, int, int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.users), len(s.terminals), len(s.communities)
}
