// Package admire simulates the Admire videoconferencing system of
// Beihang University's NLSDE lab (§3.1) at its Global-MMCS integration
// surface: a community server managing conferences over emulated
// multicast, exposing WSDL-CI web-service operations (create/join/list
// conference, get rendezvous point), and a rendezvous RTP agent that
// Global-MMCS exchanges media with, exactly as §3.2 describes: "XGSP Web
// Server invokes the web-services of Admire to notify the address of the
// rendezvous point ... after that, both sides will create RTP agents on
// this rendezvous."
package admire

import (
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/globalmmcs/globalmmcs/internal/mcast"
	"github.com/globalmmcs/globalmmcs/internal/wsci"
)

// Conference is one Admire conference.
type Conference struct {
	ID      string
	Name    string
	bus     *mcast.Bus
	agent   *rendezvousAgent
	members map[string]struct{}
}

// Server is the Admire community server.
type Server struct {
	mu          sync.Mutex
	conferences map[string]*Conference
	nextID      uint64
	closed      bool
}

// NewServer creates an empty Admire community.
func NewServer() *Server {
	return &Server{conferences: make(map[string]*Conference)}
}

// Stop tears down all conferences.
func (s *Server) Stop() {
	s.mu.Lock()
	confs := make([]*Conference, 0, len(s.conferences))
	for _, c := range s.conferences {
		confs = append(confs, c)
	}
	clear(s.conferences)
	s.closed = true
	s.mu.Unlock()
	for _, c := range confs {
		if c.agent != nil {
			c.agent.close()
		}
		c.bus.Close()
	}
}

// CreateConference starts a conference with an emulated multicast group
// and a rendezvous agent bridging that group to UDP.
func (s *Server) CreateConference(name string) (*Conference, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("admire: server stopped")
	}
	s.nextID++
	c := &Conference{
		ID:      fmt.Sprintf("adm-%d", s.nextID),
		Name:    name,
		bus:     mcast.NewBus(),
		members: make(map[string]struct{}),
	}
	agent, err := newRendezvousAgent(c.bus)
	if err != nil {
		return nil, err
	}
	c.agent = agent
	s.conferences[c.ID] = c
	return c, nil
}

// Conference looks up a conference.
func (s *Server) Conference(id string) (*Conference, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.conferences[id]
	return c, ok
}

// Join registers a user and returns their multicast membership.
func (s *Server) Join(confID, user string) (*mcast.Member, error) {
	s.mu.Lock()
	c, ok := s.conferences[confID]
	if ok {
		c.members[user] = struct{}{}
	}
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("admire: no conference %s", confID)
	}
	return c.bus.Join(0)
}

// RendezvousAddr returns the conference's rendezvous UDP address.
func (s *Server) RendezvousAddr(confID string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.conferences[confID]
	if !ok {
		return "", fmt.Errorf("admire: no conference %s", confID)
	}
	return c.agent.addr(), nil
}

// Members lists a conference's registered users.
func (s *Server) Members(confID string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.conferences[confID]
	if !ok {
		return nil
	}
	out := make([]string, 0, len(c.members))
	for u := range c.members {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// rendezvousAgent bridges the conference multicast group to a UDP
// socket: datagrams arriving from the (single) remote peer go onto the
// bus, and bus traffic goes back to that peer.
type rendezvousAgent struct {
	pc     net.PacketConn
	member *mcast.Member
	remote atomic.Pointer[net.UDPAddr]
	wg     sync.WaitGroup
	once   sync.Once
}

func newRendezvousAgent(bus *mcast.Bus) (*rendezvousAgent, error) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("admire: binding rendezvous: %w", err)
	}
	member, err := bus.Join(512)
	if err != nil {
		pc.Close()
		return nil, err
	}
	a := &rendezvousAgent{pc: pc, member: member}
	a.wg.Add(2)
	go a.inbound()
	go a.outbound()
	return a, nil
}

func (a *rendezvousAgent) addr() string { return a.pc.LocalAddr().String() }

// probeMagic is the rendezvous hole-punch datagram: the remote RTP agent
// announces its address without injecting anything into the conference.
var probeMagic = []byte("ADMIRE-RENDEZVOUS-PROBE")

func (a *rendezvousAgent) inbound() {
	defer a.wg.Done()
	buf := make([]byte, 64<<10)
	for {
		n, raddr, err := a.pc.ReadFrom(buf)
		if err != nil {
			return
		}
		if a.remote.Load() == nil {
			if ua, ok := raddr.(*net.UDPAddr); ok {
				a.remote.Store(ua)
			}
		}
		if n == len(probeMagic) && string(buf[:n]) == string(probeMagic) {
			// Address registration: acknowledge so the remote agent
			// knows the path is open before it relies on it.
			_, _ = a.pc.WriteTo(probeMagic, raddr)
			continue
		}
		data := make([]byte, n)
		copy(data, buf[:n])
		a.member.Send(data)
	}
}

func (a *rendezvousAgent) outbound() {
	defer a.wg.Done()
	for data := range a.member.Recv() {
		remote := a.remote.Load()
		if remote == nil {
			continue
		}
		if _, err := a.pc.WriteTo(data, remote); err != nil {
			continue
		}
	}
}

func (a *rendezvousAgent) close() {
	a.once.Do(func() {
		a.pc.Close()
		a.member.Leave()
	})
	a.wg.Wait()
}

// --- WSDL-CI web service -------------------------------------------------

// SOAP operation payloads.
type (
	// CreateConferenceRequest asks Admire to start a conference.
	CreateConferenceRequest struct {
		XMLName xml.Name `xml:"AdmireCreateConference"`
		Name    string   `xml:"name"`
	}
	// CreateConferenceResponse returns the new conference id.
	CreateConferenceResponse struct {
		XMLName xml.Name `xml:"AdmireCreateConferenceResponse"`
		ID      string   `xml:"id"`
	}
	// RendezvousRequest asks for a conference's rendezvous point.
	RendezvousRequest struct {
		XMLName xml.Name `xml:"AdmireGetRendezvous"`
		ID      string   `xml:"id"`
	}
	// RendezvousResponse carries the rendezvous UDP address.
	RendezvousResponse struct {
		XMLName xml.Name `xml:"AdmireGetRendezvousResponse"`
		Addr    string   `xml:"addr"`
	}
	// JoinRequest registers a user in a conference.
	JoinRequest struct {
		XMLName xml.Name `xml:"AdmireJoin"`
		ID      string   `xml:"id"`
		User    string   `xml:"user"`
	}
	// JoinResponse acknowledges a join.
	JoinResponse struct {
		XMLName xml.Name `xml:"AdmireJoinResponse"`
		OK      bool     `xml:"ok"`
	}
	// ListRequest asks for all conferences.
	ListRequest struct {
		XMLName xml.Name `xml:"AdmireList"`
	}
	// ListResponse returns conference ids and names.
	ListResponse struct {
		XMLName xml.Name `xml:"AdmireListResponse"`
		IDs     []string `xml:"conference>id"`
		Names   []string `xml:"conference>name"`
	}
)

// WebService wraps the server in a WSDL-CI service exposing Admire's
// collaboration interface.
func (s *Server) WebService() *wsci.Service {
	svc := wsci.NewService("AdmireCollaboration")
	svc.Register(wsci.Operation{
		Name: "AdmireCreateConference", Doc: "create an Admire conference",
		Input: "AdmireCreateConference", Output: "AdmireCreateConferenceResponse",
	}, func(ctx context.Context, action []byte) (any, error) {
		var req CreateConferenceRequest
		if err := xml.Unmarshal(action, &req); err != nil {
			return nil, err
		}
		c, err := s.CreateConference(req.Name)
		if err != nil {
			return nil, err
		}
		return &CreateConferenceResponse{ID: c.ID}, nil
	})
	svc.Register(wsci.Operation{
		Name: "AdmireGetRendezvous", Doc: "rendezvous point of a conference",
		Input: "AdmireGetRendezvous", Output: "AdmireGetRendezvousResponse",
	}, func(ctx context.Context, action []byte) (any, error) {
		var req RendezvousRequest
		if err := xml.Unmarshal(action, &req); err != nil {
			return nil, err
		}
		addr, err := s.RendezvousAddr(req.ID)
		if err != nil {
			return nil, err
		}
		return &RendezvousResponse{Addr: addr}, nil
	})
	svc.Register(wsci.Operation{
		Name: "AdmireJoin", Doc: "register a user in a conference",
		Input: "AdmireJoin", Output: "AdmireJoinResponse",
	}, func(ctx context.Context, action []byte) (any, error) {
		var req JoinRequest
		if err := xml.Unmarshal(action, &req); err != nil {
			return nil, err
		}
		s.mu.Lock()
		c, ok := s.conferences[req.ID]
		if ok {
			c.members[req.User] = struct{}{}
		}
		s.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("admire: no conference %s", req.ID)
		}
		return &JoinResponse{OK: true}, nil
	})
	svc.Register(wsci.Operation{
		Name: "AdmireList", Doc: "list conferences",
		Input: "AdmireList", Output: "AdmireListResponse",
	}, func(ctx context.Context, action []byte) (any, error) {
		s.mu.Lock()
		defer s.mu.Unlock()
		resp := &ListResponse{}
		ids := make([]string, 0, len(s.conferences))
		for id := range s.conferences {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			resp.IDs = append(resp.IDs, id)
			resp.Names = append(resp.Names, s.conferences[id].Name)
		}
		return resp, nil
	})
	return svc
}
