// Package core assembles the complete Global-MMCS prototype of the
// paper's Figure 2: the NaradaBrokering-substitute broker, the XGSP
// session server, the XGSP web server (WSDL-CI/SOAP frontend), the
// naming & directory service, the SIP servers (proxy/registrar/gateway),
// the H.323 servers (gatekeeper/gateway), the RTP proxies, the streaming
// (RTSP) server, the IM/presence service, and bridges to Admire and
// Access Grid communities.
package core

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
	"github.com/globalmmcs/globalmmcs/internal/clock"
	"github.com/globalmmcs/globalmmcs/internal/directory"
	"github.com/globalmmcs/globalmmcs/internal/h323"
	"github.com/globalmmcs/globalmmcs/internal/im"
	"github.com/globalmmcs/globalmmcs/internal/metrics"
	"github.com/globalmmcs/globalmmcs/internal/rtpproxy"
	"github.com/globalmmcs/globalmmcs/internal/sip"
	"github.com/globalmmcs/globalmmcs/internal/streaming"
	"github.com/globalmmcs/globalmmcs/internal/transport"
	"github.com/globalmmcs/globalmmcs/internal/wsci"
	"github.com/globalmmcs/globalmmcs/internal/xgsp"
)

// Config parameterises a Global-MMCS server. The zero value starts every
// service on loopback with ephemeral ports.
type Config struct {
	// BrokerID names this node's broker. Default "gmmcs-broker".
	BrokerID string
	// BrokerMaxBatchBytes bounds the broker's per-session write batches
	// (0 = broker default).
	BrokerMaxBatchBytes int
	// BrokerFlushInterval is the broker's batch linger once a session
	// queue idles (0 = flush immediately).
	BrokerFlushInterval time.Duration
	// BrokerListenURLs are transport URLs the broker accepts remote
	// clients and peer brokers on (e.g. "tcp://127.0.0.1:0"). Optional.
	BrokerListenURLs []string
	// BrokerPeers are peer broker URLs this node keeps supervised mesh
	// links to (dialed with redial/backoff, heartbeat-monitored).
	// Optional.
	BrokerPeers []string
	// BrokerMeshID scopes peer links to one federation mesh; brokers
	// link only when their mesh IDs match (empty matches anything).
	BrokerMeshID string
	// BrokerRecordPatterns are topic patterns the broker records to
	// durable topic logs for replay (see internal/topiclog). Optional.
	BrokerRecordPatterns []string
	// BrokerRecordDir is the root directory for topic logs (empty =
	// broker default under the OS temp dir).
	BrokerRecordDir string
	// BrokerRecordSegmentBytes caps one log segment's size before roll
	// (0 = broker default).
	BrokerRecordSegmentBytes int64
	// BrokerRecordMaxSegments / BrokerRecordMaxBytes bound each log's
	// retention; oldest segments are reaped past either (0 = unbounded).
	BrokerRecordMaxSegments int
	BrokerRecordMaxBytes    int64
	// Domain is the SIP domain. Default "mmcs.local".
	Domain string
	// WebAddr is the XGSP web server's HTTP address. Default
	// "127.0.0.1:0".
	WebAddr string
	// DisableSIP/DisableH323/DisableRTSP/DisableIM turn subsystems off.
	DisableSIP  bool
	DisableH323 bool
	DisableRTSP bool
	DisableIM   bool
	// Clock drives schedulers; nil = system clock.
	Clock clock.Clock
	// Metrics receives all counters; nil allocates a private registry.
	Metrics *metrics.Registry
}

func (c Config) withDefaults() Config {
	if c.BrokerID == "" {
		c.BrokerID = "gmmcs-broker"
	}
	if c.Domain == "" {
		c.Domain = "mmcs.local"
	}
	if c.WebAddr == "" {
		c.WebAddr = "127.0.0.1:0"
	}
	if c.Clock == nil {
		c.Clock = clock.System{}
	}
	if c.Metrics == nil {
		c.Metrics = &metrics.Registry{}
	}
	return c
}

// Server is a running Global-MMCS node.
type Server struct {
	cfg Config

	// Broker is the messaging middleware node.
	Broker *broker.Broker
	// XGSP is the session server.
	XGSP *xgsp.Server
	// Directory is the naming & directory store.
	Directory *directory.Store
	// Communities is the registry of community collaboration services.
	Communities *wsci.Registry
	// SIP is the SIP registrar/proxy/gateway (nil when disabled).
	SIP *sip.Server
	// Gatekeeper and H323Gateway are the H.323 servers (nil when
	// disabled).
	Gatekeeper  *h323.Gatekeeper
	H323Gateway *h323.Gateway
	// RTSP is the streaming server (nil when disabled).
	RTSP *streaming.Server
	// IM is the chat/presence service (nil when disabled).
	IM *im.Service

	webLn   net.Listener
	webSrv  *http.Server
	gwXGSP  []*xgsp.Client
	proxies []*rtpproxy.Proxy
	clients []*broker.Client
	mesh    *broker.Mesh

	mu      sync.Mutex
	bridges []closer
	stopped bool
	wg      sync.WaitGroup
}

type closer interface{ Close() }

// Start assembles and starts a Global-MMCS node. ctx bounds the startup
// handshakes; a cancelled ctx aborts startup and tears down whatever was
// already running.
func Start(ctx context.Context, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		Directory:   &directory.Store{},
		Communities: wsci.NewRegistry(),
	}
	s.Broker = broker.New(broker.Config{
		ID:                 cfg.BrokerID,
		MaxBatchBytes:      cfg.BrokerMaxBatchBytes,
		FlushInterval:      cfg.BrokerFlushInterval,
		MeshID:             cfg.BrokerMeshID,
		RecordPatterns:     cfg.BrokerRecordPatterns,
		RecordDir:          cfg.BrokerRecordDir,
		RecordSegmentBytes: cfg.BrokerRecordSegmentBytes,
		RecordMaxSegments:  cfg.BrokerRecordMaxSegments,
		RecordMaxBytes:     cfg.BrokerRecordMaxBytes,
		Metrics:            cfg.Metrics,
	})
	for _, url := range cfg.BrokerListenURLs {
		if _, err := s.Broker.Listen(url); err != nil {
			s.Stop()
			return nil, fmt.Errorf("core: broker listen %s: %w", url, err)
		}
	}
	if len(cfg.BrokerPeers) > 0 {
		s.mesh = broker.NewMesh(s.Broker, broker.MeshConfig{Peers: cfg.BrokerPeers})
	}

	// XGSP session server.
	xgspBC, err := s.localClient("xgsp-session-server")
	if err != nil {
		s.Stop()
		return nil, err
	}
	s.XGSP = xgsp.NewServer(xgspBC, xgsp.ServerConfig{Clock: cfg.Clock, Metrics: cfg.Metrics})
	if err := s.XGSP.Start(); err != nil {
		s.Stop()
		return nil, fmt.Errorf("core: starting xgsp server: %w", err)
	}

	// IM / presence service.
	if !cfg.DisableIM {
		imBC, err := s.localClient("im-service")
		if err != nil {
			s.Stop()
			return nil, err
		}
		s.IM, err = im.NewService(ctx, imBC, im.ServiceConfig{
			Communities: []string{"global", "sip", "h323", "admire", "accessgrid"},
		})
		if err != nil {
			s.Stop()
			return nil, fmt.Errorf("core: starting im service: %w", err)
		}
	}

	// SIP servers.
	if !cfg.DisableSIP {
		xc, proxy, err := s.gatewayKit(ctx, "sip")
		if err != nil {
			s.Stop()
			return nil, err
		}
		sipCfg := sip.ServerConfig{
			Domain:    cfg.Domain,
			XGSP:      xc,
			Proxy:     proxy,
			Directory: s.Directory,
			Clock:     cfg.Clock,
			Metrics:   cfg.Metrics,
		}
		if s.IM != nil {
			sipCfg.Chat = s.IM
		}
		s.SIP, err = sip.NewServer(sipCfg)
		if err != nil {
			s.Stop()
			return nil, fmt.Errorf("core: starting sip server: %w", err)
		}
	}

	// H.323 servers.
	if !cfg.DisableH323 {
		xc, proxy, err := s.gatewayKit(ctx, "h323")
		if err != nil {
			s.Stop()
			return nil, err
		}
		s.H323Gateway, err = h323.NewGateway(h323.GatewayConfig{
			XGSP: xc, Proxy: proxy, Metrics: cfg.Metrics,
		})
		if err != nil {
			s.Stop()
			return nil, fmt.Errorf("core: starting h323 gateway: %w", err)
		}
		s.Gatekeeper, err = h323.NewGatekeeper(h323.GatekeeperConfig{
			SignalAddr: s.H323Gateway.Addr(), Directory: s.Directory,
			Clock: cfg.Clock, Metrics: cfg.Metrics,
		})
		if err != nil {
			s.Stop()
			return nil, fmt.Errorf("core: starting gatekeeper: %w", err)
		}
	}

	// Streaming server.
	if !cfg.DisableRTSP {
		xcBC, err := s.localClient("rtsp-xgsp")
		if err != nil {
			s.Stop()
			return nil, err
		}
		xc, err := xgsp.NewClient(ctx, xcBC, "rtsp-server")
		if err != nil {
			s.Stop()
			return nil, fmt.Errorf("core: rtsp xgsp client: %w", err)
		}
		s.gwXGSP = append(s.gwXGSP, xc)
		mediaBC, err := s.localClient("rtsp-media")
		if err != nil {
			s.Stop()
			return nil, err
		}
		s.RTSP, err = streaming.NewServer(streaming.ServerConfig{
			XGSP: xc, Broker: mediaBC, Metrics: cfg.Metrics,
		})
		if err != nil {
			s.Stop()
			return nil, fmt.Errorf("core: starting rtsp server: %w", err)
		}
	}

	// XGSP web server (SOAP frontend).
	if err := s.startWebServer(ctx); err != nil {
		s.Stop()
		return nil, err
	}
	return s, nil
}

// localClient attaches an in-process broker client tracked for shutdown.
func (s *Server) localClient(id string) (*broker.Client, error) {
	bc, err := s.Broker.LocalClient(id, transport.LinkProfile{})
	if err != nil {
		return nil, fmt.Errorf("core: attaching %s: %w", id, err)
	}
	s.clients = append(s.clients, bc)
	return bc, nil
}

// gatewayKit builds the xgsp client + rtp proxy pair every media gateway
// needs.
func (s *Server) gatewayKit(ctx context.Context, name string) (*xgsp.Client, *rtpproxy.Proxy, error) {
	xcBC, err := s.localClient(name + "-gateway-xgsp")
	if err != nil {
		return nil, nil, err
	}
	xc, err := xgsp.NewClient(ctx, xcBC, name+"-gateway")
	if err != nil {
		return nil, nil, fmt.Errorf("core: %s gateway xgsp client: %w", name, err)
	}
	s.gwXGSP = append(s.gwXGSP, xc)
	proxyBC, err := s.localClient(name + "-rtpproxy")
	if err != nil {
		return nil, nil, err
	}
	proxy := rtpproxy.New(proxyBC)
	s.proxies = append(s.proxies, proxy)
	return xc, proxy, nil
}

// WebAddr returns the XGSP web server's HTTP base URL.
func (s *Server) WebAddr() string {
	if s.webLn == nil {
		return ""
	}
	return "http://" + s.webLn.Addr().String()
}

// LinkAdmire bridges a session to an Admire conference served at the
// given WSDL-CI endpoint, registering the community on the way.
func (s *Server) LinkAdmire(ctx context.Context, sessionID, confID, endpoint string) (*admire.Bridge, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	info := s.XGSP.Lookup(sessionID)
	if info == nil {
		return nil, fmt.Errorf("core: no session %s: %w", sessionID, ErrSessionNotFound)
	}
	if err := s.Communities.Register(wsci.ServiceEntry{
		Community: "admire", Kind: "admire", Endpoint: endpoint,
	}); err != nil {
		return nil, err
	}
	bc, err := s.localClient("admire-bridge-" + sessionID)
	if err != nil {
		return nil, err
	}
	bridge, err := admire.NewBridge(bc, info, confID, wsci.NewClient(endpoint))
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.bridges = append(s.bridges, bridge)
	s.mu.Unlock()
	return bridge, nil
}

// LinkAccessGrid bridges a session to a venue on an in-process venue
// server.
func (s *Server) LinkAccessGrid(ctx context.Context, sessionID string, vs *accessgrid.VenueServer, venue string) (*accessgrid.Bridge, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	info := s.XGSP.Lookup(sessionID)
	if info == nil {
		return nil, fmt.Errorf("core: no session %s: %w", sessionID, ErrSessionNotFound)
	}
	bc, err := s.localClient("ag-bridge-" + sessionID)
	if err != nil {
		return nil, err
	}
	bridge, err := accessgrid.NewBridge(bc, vs, venue, info)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.bridges = append(s.bridges, bridge)
	s.mu.Unlock()
	return bridge, nil
}

// Client attaches an in-process collaboration client for a user.
func (s *Server) Client(ctx context.Context, userID string) (*Client, error) {
	s.mu.Lock()
	stopped := s.stopped
	s.mu.Unlock()
	if stopped {
		return nil, ErrStopped
	}
	bc, err := s.Broker.LocalClient("user-"+userID, transport.LinkProfile{})
	if err != nil {
		if errors.Is(err, broker.ErrBrokerStopped) {
			return nil, ErrStopped
		}
		return nil, fmt.Errorf("core: attaching client %s: %w", userID, err)
	}
	c, err := NewClient(ctx, bc, userID)
	if err != nil {
		return nil, err
	}
	c.Metrics = s.cfg.Metrics
	return c, nil
}

// Stop shuts every subsystem down in dependency order.
func (s *Server) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	bridges := s.bridges
	s.bridges = nil
	s.mu.Unlock()

	for _, b := range bridges {
		b.Close()
	}
	if s.webSrv != nil {
		_ = s.webSrv.Close()
	}
	if s.RTSP != nil {
		s.RTSP.Stop()
	}
	if s.Gatekeeper != nil {
		s.Gatekeeper.Stop()
	}
	if s.H323Gateway != nil {
		s.H323Gateway.Stop()
	}
	if s.SIP != nil {
		s.SIP.Stop()
	}
	if s.IM != nil {
		s.IM.Stop()
	}
	for _, p := range s.proxies {
		p.Close()
	}
	for _, xc := range s.gwXGSP {
		xc.Close()
	}
	if s.XGSP != nil {
		s.XGSP.Stop()
	}
	for _, bc := range s.clients {
		_ = bc.Close()
	}
	if s.mesh != nil {
		s.mesh.Stop()
	}
	if s.Broker != nil {
		s.Broker.Stop()
	}
	s.wg.Wait()
}

// ErrStopped is returned by operations on a stopped server.
var ErrStopped = errors.New("core: server stopped")

// ErrSessionNotFound is returned when an operation names an unknown
// session.
var ErrSessionNotFound = errors.New("core: session not found")

// WaitReady blocks until the web listener answers, bounded by ctx. It
// replaces the ad-hoc startup sleeps tests and examples used to need.
func (s *Server) WaitReady(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		conn, err := net.DialTimeout("tcp", s.webLn.Addr().String(), time.Second)
		if err == nil {
			conn.Close()
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}
