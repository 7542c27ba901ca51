// Package globalmmcs is the public SDK of the Global Multimedia
// Collaboration System (Global-MMCS) — a from-scratch Go reproduction of
// the system described in "Global Multimedia Collaboration System" (Fox,
// Wu, Uyar, Bulut, Pallickara; Community Grids Lab).
//
// A Server assembles the full middleware stack: the
// NaradaBrokering-substitute publish/subscribe broker, the XGSP session
// server and web-services (WSDL-CI) frontend, the naming & directory
// service, SIP and H.323 gateways with RTP proxies, the RTSP streaming
// service, instant messaging and presence, and bridges to Admire and
// Access Grid communities.
//
// Every blocking operation takes a context.Context as its first
// parameter and honors cancellation; configuration is functional options
// (zero options = a fully working loopback node); failures wrap the
// sentinel errors in errors.go so they classify with errors.Is:
//
//	srv, err := globalmmcs.Start(ctx)
//	if err != nil { ... }
//	defer srv.Stop()
//
//	alice, err := srv.Client(ctx, "alice")
//	if err != nil { ... }
//	defer alice.Close()
//	session, err := alice.CreateSession(ctx, "standup")
//	if errors.Is(err, globalmmcs.ErrTimeout) { ... }
//
// A remote process gets the same Client by dialing a node's broker
// listeners (WithBrokerListen); it reconnects and resumes on its own:
//
//	bob, err := globalmmcs.Dial(ctx, "bob", []string{"tcp://mmcs.example.org:9040"})
//	if err != nil { ... }
//	defer bob.Close()
//	session, err := bob.Join(ctx, sessionID, "bob-laptop")
//
// Every subscription — chat rooms, presence watches, media channels,
// raw session events — is a Stream[T]: one typed handle consumed with
// Recv, All or Chan, closed with Close, and tuned per subscription with
// QoS options (WithBuffer, WithDropPolicy, WithReplayFrom). The send
// side mirrors it with Session.Publisher and per-handle options
// (WithReliable, WithTTL):
//
//	room, err := session.Chat(ctx, globalmmcs.WithBuffer(128))
//	if err != nil { ... }
//	defer room.Close()
//	for msg, err := range room.All(ctx) {
//	    if err != nil { ... }
//	    fmt.Println(msg.From, msg.Body)
//	}
//
// See the examples/ directory for complete programs and DESIGN.md for
// the architecture, including the §5 substitutions this reproduction
// makes for the paper's original building blocks.
package globalmmcs

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/accessgrid"
	"github.com/globalmmcs/globalmmcs/internal/admire"
	"github.com/globalmmcs/globalmmcs/internal/broker"
	"github.com/globalmmcs/globalmmcs/internal/directory"
	"github.com/globalmmcs/globalmmcs/internal/h323"
	"github.com/globalmmcs/globalmmcs/internal/im"
	"github.com/globalmmcs/globalmmcs/internal/rtpproxy"
	"github.com/globalmmcs/globalmmcs/internal/sip"
	"github.com/globalmmcs/globalmmcs/internal/streaming"
	"github.com/globalmmcs/globalmmcs/internal/transport"
	"github.com/globalmmcs/globalmmcs/internal/wsci"
	"github.com/globalmmcs/globalmmcs/internal/xgsp"
)

// Version is the release version of this reproduction.
const Version = "3.0.0"

// Server is a running Global-MMCS node: the paper's Figure 2 — the
// broker, the XGSP session server and its web frontend, the naming &
// directory store, the SIP and H.323 servers with their RTP proxies,
// the RTSP streaming server, the IM/presence service, and the bridges to
// Admire and Access Grid communities.
type Server struct {
	cfg config

	node        *Broker
	xgsp        *xgsp.Server
	directory   *directory.Store
	communities *wsci.Registry
	// The services below are nil when their Without* option is given.
	sip         *sip.Server
	gatekeeper  *h323.Gatekeeper
	h323Gateway *h323.Gateway
	rtsp        *streaming.Server
	im          *im.Service

	webLn   net.Listener
	webSrv  *http.Server
	gwXGSP  []*xgsp.Client
	proxies []*rtpproxy.Proxy

	mu      sync.Mutex
	clients []*broker.Client
	bridges []closer
	stopped bool
	wg      sync.WaitGroup
}

type closer interface{ Close() }

// Start assembles and starts a Global-MMCS node. ctx bounds the startup
// handshakes; cancelling it aborts startup and tears down whatever was
// already running. With no options every service starts on loopback
// with ephemeral ports.
func Start(ctx context.Context, opts ...Option) (*Server, error) {
	var cfg config
	for _, opt := range opts {
		opt(&cfg)
	}
	s := &Server{
		cfg:         cfg.withDefaults(),
		directory:   &directory.Store{},
		communities: wsci.NewRegistry(),
	}
	if err := s.start(ctx); err != nil {
		s.Stop()
		return nil, wrapErr(err)
	}
	return s, nil
}

// start brings the services up in dependency order. On error the caller
// stops whatever already runs.
func (s *Server) start(ctx context.Context) error {
	cfg := s.cfg
	reg := cfg.broker.Metrics
	var err error
	if s.node, err = newNode(cfg); err != nil {
		return err
	}

	xgspBC, err := s.localClient("xgsp-session-server")
	if err != nil {
		return err
	}
	s.xgsp = xgsp.NewServer(xgspBC, xgsp.ServerConfig{Clock: cfg.clock, Metrics: reg})
	if err := s.xgsp.Start(); err != nil {
		return fmt.Errorf("globalmmcs: starting xgsp server: %w", err)
	}

	if !cfg.withoutIM {
		imBC, err := s.localClient("im-service")
		if err != nil {
			return err
		}
		s.im, err = im.NewService(ctx, imBC, im.ServiceConfig{
			Communities: []string{"global", "sip", "h323", "admire", "accessgrid"},
		})
		if err != nil {
			return fmt.Errorf("globalmmcs: starting im service: %w", err)
		}
	}

	if !cfg.withoutSIP {
		xc, proxy, err := s.gatewayKit(ctx, "sip")
		if err != nil {
			return err
		}
		sipCfg := sip.ServerConfig{
			Domain:    cfg.domain,
			XGSP:      xc,
			Proxy:     proxy,
			Directory: s.directory,
			Clock:     cfg.clock,
			Metrics:   reg,
		}
		if s.im != nil {
			sipCfg.Chat = s.im
		}
		s.sip, err = sip.NewServer(sipCfg)
		if err != nil {
			return fmt.Errorf("globalmmcs: starting sip server: %w", err)
		}
	}

	if !cfg.withoutH323 {
		xc, proxy, err := s.gatewayKit(ctx, "h323")
		if err != nil {
			return err
		}
		s.h323Gateway, err = h323.NewGateway(h323.GatewayConfig{
			XGSP: xc, Proxy: proxy, Metrics: reg,
		})
		if err != nil {
			return fmt.Errorf("globalmmcs: starting h323 gateway: %w", err)
		}
		s.gatekeeper, err = h323.NewGatekeeper(h323.GatekeeperConfig{
			SignalAddr: s.h323Gateway.Addr(), Directory: s.directory,
			Clock: cfg.clock, Metrics: reg,
		})
		if err != nil {
			return fmt.Errorf("globalmmcs: starting gatekeeper: %w", err)
		}
	}

	if !cfg.withoutRTSP {
		xc, err := s.xgspClient(ctx, "rtsp-xgsp", "rtsp-server")
		if err != nil {
			return err
		}
		mediaBC, err := s.localClient("rtsp-media")
		if err != nil {
			return err
		}
		s.rtsp, err = streaming.NewServer(streaming.ServerConfig{
			XGSP: xc, Broker: mediaBC, Metrics: reg,
		})
		if err != nil {
			return fmt.Errorf("globalmmcs: starting rtsp server: %w", err)
		}
	}

	return s.startWebServer(ctx)
}

// localClient attaches an in-process broker client that Stop closes. It
// refuses once the server is stopped, so nothing attached late outlives
// Stop.
func (s *Server) localClient(id string) (*broker.Client, error) {
	bc, err := s.node.b.LocalClient(id, transport.LinkProfile{})
	if err != nil {
		return nil, fmt.Errorf("globalmmcs: attaching %s: %w", id, err)
	}
	s.mu.Lock()
	stopped := s.stopped
	if !stopped {
		s.clients = append(s.clients, bc)
	}
	s.mu.Unlock()
	if stopped {
		_ = bc.Close()
		return nil, ErrServerStopped
	}
	return bc, nil
}

// xgspClient attaches a service's XGSP client under its own broker
// client; Stop closes both.
func (s *Server) xgspClient(ctx context.Context, bcID, userID string) (*xgsp.Client, error) {
	bc, err := s.localClient(bcID)
	if err != nil {
		return nil, err
	}
	xc, err := xgsp.NewClient(ctx, bc, userID)
	if err != nil {
		return nil, fmt.Errorf("globalmmcs: %s xgsp client: %w", userID, err)
	}
	s.gwXGSP = append(s.gwXGSP, xc)
	return xc, nil
}

// gatewayKit builds the xgsp client + rtp proxy pair every media gateway
// needs.
func (s *Server) gatewayKit(ctx context.Context, name string) (*xgsp.Client, *rtpproxy.Proxy, error) {
	xc, err := s.xgspClient(ctx, name+"-gateway-xgsp", name+"-gateway")
	if err != nil {
		return nil, nil, err
	}
	proxyBC, err := s.localClient(name + "-rtpproxy")
	if err != nil {
		return nil, nil, err
	}
	proxy := rtpproxy.New(proxyBC)
	s.proxies = append(s.proxies, proxy)
	return xc, proxy, nil
}

// Stop shuts every subsystem down in dependency order. It is idempotent.
func (s *Server) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	bridges, clients := s.bridges, s.clients
	s.bridges = nil
	s.mu.Unlock()

	for _, b := range bridges {
		b.Close()
	}
	if s.webSrv != nil {
		_ = s.webSrv.Close()
	}
	if s.rtsp != nil {
		s.rtsp.Stop()
	}
	if s.gatekeeper != nil {
		s.gatekeeper.Stop()
	}
	if s.h323Gateway != nil {
		s.h323Gateway.Stop()
	}
	if s.sip != nil {
		s.sip.Stop()
	}
	if s.im != nil {
		s.im.Stop()
	}
	for _, p := range s.proxies {
		p.Close()
	}
	for _, xc := range s.gwXGSP {
		xc.Close()
	}
	if s.xgsp != nil {
		s.xgsp.Stop()
	}
	for _, bc := range clients {
		_ = bc.Close()
	}
	if s.node != nil {
		s.node.Stop()
	}
	s.wg.Wait()
}

// Broker returns the node's broker: its bound listener URLs (the URLs
// Dial takes), mesh links, session count and Drain. Callers stop the
// Server, not its Broker.
func (s *Server) Broker() *Broker { return s.node }

// readyPoll is how often WaitReady retries the web listener.
const readyPoll = 10 * time.Millisecond

// WaitReady blocks until the node answers on its web listener, bounded
// by ctx — the replacement for the startup sleeps examples used to need.
func (s *Server) WaitReady(ctx context.Context) error {
	poll := time.NewTimer(readyPoll)
	defer poll.Stop()
	for {
		if err := ctx.Err(); err != nil {
			return wrapErr(err)
		}
		conn, err := net.DialTimeout("tcp", s.webLn.Addr().String(), time.Second)
		if err == nil {
			conn.Close()
			return nil
		}
		poll.Reset(readyPoll)
		select {
		case <-ctx.Done():
			return wrapErr(ctx.Err())
		case <-poll.C:
		}
	}
}

// Client attaches an in-process collaboration client for a user.
func (s *Server) Client(ctx context.Context, userID string) (*Client, error) {
	if userID == "" {
		return nil, tag(ErrInvalidRequest, errors.New("globalmmcs: empty user id"))
	}
	s.mu.Lock()
	stopped := s.stopped
	s.mu.Unlock()
	if stopped {
		return nil, ErrServerStopped
	}
	bc, err := s.node.b.LocalClient(brokerID(userID), transport.LinkProfile{})
	if err != nil {
		return nil, wrapErr(fmt.Errorf("globalmmcs: attaching client %s: %w", userID, err))
	}
	c, err := newClient(ctx, bc, userID, s.cfg.broker.Metrics)
	if err != nil {
		return nil, wrapErr(err)
	}
	return c, nil
}

// WebAddr returns the XGSP web server's HTTP base URL. The WSDL-CI SOAP
// endpoint is WebAddr()+"/ws".
func (s *Server) WebAddr() string {
	if s.webLn == nil {
		return ""
	}
	return "http://" + s.webLn.Addr().String()
}

// SIPAddr returns the SIP server's UDP address, or "" when SIP is
// disabled.
func (s *Server) SIPAddr() string {
	if s.sip == nil {
		return ""
	}
	return s.sip.Addr()
}

// SIPDomain returns the SIP domain, or "" when SIP is disabled.
func (s *Server) SIPDomain() string {
	if s.sip == nil {
		return ""
	}
	return s.sip.Domain()
}

// GatekeeperAddr returns the H.323 RAS address, or "" when H.323 is
// disabled.
func (s *Server) GatekeeperAddr() string {
	if s.gatekeeper == nil {
		return ""
	}
	return s.gatekeeper.Addr()
}

// H323GatewayAddr returns the H.323 call-signalling address, or "" when
// H.323 is disabled.
func (s *Server) H323GatewayAddr() string {
	if s.h323Gateway == nil {
		return ""
	}
	return s.h323Gateway.Addr()
}

// RTSPAddr returns the streaming server's address, or "" when RTSP is
// disabled.
func (s *Server) RTSPAddr() string {
	if s.rtsp == nil {
		return ""
	}
	return s.rtsp.Addr()
}

// StreamURL returns the rtsp:// URL a media player uses to watch a
// session, or "" when RTSP is disabled.
func (s *Server) StreamURL(sessionID string) string {
	if s.rtsp == nil {
		return ""
	}
	return s.rtsp.URL(sessionID)
}

// SessionInfo looks a session up server-side and reports whether it
// exists.
func (s *Server) SessionInfo(sessionID string) (SessionDetails, bool) {
	info := s.xgsp.Lookup(sessionID)
	if info == nil {
		return SessionDetails{}, false
	}
	return detailsFromInfo(info), true
}

// ChatHistory returns up to limit most recent messages of a session's
// room, oldest first. It returns nil when IM is disabled.
func (s *Server) ChatHistory(sessionID string, limit int) []ChatMessage {
	if s.im == nil {
		return nil
	}
	history := s.im.History(sessionID, limit)
	out := make([]ChatMessage, len(history))
	for i, m := range history {
		out[i] = chatFromInternal(&m)
	}
	return out
}

// LinkAdmire bridges a session to an Admire conference served at the
// given WSDL-CI endpoint, registering the community on the way.
func (s *Server) LinkAdmire(ctx context.Context, sessionID, confID, endpoint string) error {
	if err := ctx.Err(); err != nil {
		return wrapErr(err)
	}
	info := s.xgsp.Lookup(sessionID)
	if info == nil {
		return tag(ErrSessionNotFound, errSessionID(sessionID))
	}
	if err := s.communities.Register(wsci.ServiceEntry{
		Community: "admire", Kind: "admire", Endpoint: endpoint,
	}); err != nil {
		return wrapErr(err)
	}
	bc, err := s.localClient("admire-bridge-" + sessionID)
	if err != nil {
		return wrapErr(err)
	}
	bridge, err := admire.NewBridge(bc, info, confID, wsci.NewClient(endpoint))
	if err != nil {
		return wrapErr(err)
	}
	return s.keepBridge(bridge)
}

// LinkAccessGrid bridges a session to a venue on a venue server.
func (s *Server) LinkAccessGrid(ctx context.Context, sessionID string, venues *VenueServer, venue string) error {
	if err := ctx.Err(); err != nil {
		return wrapErr(err)
	}
	info := s.xgsp.Lookup(sessionID)
	if info == nil {
		return tag(ErrSessionNotFound, errSessionID(sessionID))
	}
	bc, err := s.localClient("ag-bridge-" + sessionID)
	if err != nil {
		return wrapErr(err)
	}
	bridge, err := accessgrid.NewBridge(bc, venues.vs, venue, info)
	if err != nil {
		return wrapErr(err)
	}
	return s.keepBridge(bridge)
}

// keepBridge hands a new bridge to Stop, or closes it when Stop has
// already taken its snapshot.
func (s *Server) keepBridge(b closer) error {
	s.mu.Lock()
	stopped := s.stopped
	if !stopped {
		s.bridges = append(s.bridges, b)
	}
	s.mu.Unlock()
	if stopped {
		b.Close()
		return ErrServerStopped
	}
	return nil
}
