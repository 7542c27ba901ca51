package globalmmcs

import (
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"net"
	"net/http"

	"github.com/globalmmcs/globalmmcs/internal/directory"
	"github.com/globalmmcs/globalmmcs/internal/wsci"
	"github.com/globalmmcs/globalmmcs/internal/xgsp"
)

// SOAP payloads of the XGSP web server — the WSDL-CI frontend through
// which web portals and other communities drive Global-MMCS (§2.2).
type (
	// wsCreateSession creates a session on behalf of a user.
	wsCreateSession struct {
		XMLName xml.Name `xml:"CreateSession"`
		Creator string   `xml:"creator"`
		Name    string   `xml:"name"`
		// Start/End (RFC 3339) make the session scheduled.
		Start string `xml:"start,omitempty"`
		End   string `xml:"end,omitempty"`
	}
	// wsSessionResponse returns the session's catalogue entry.
	wsSessionResponse struct {
		XMLName xml.Name `xml:"CreateSessionResponse"`
		ID      string   `xml:"id"`
		Name    string   `xml:"name"`
		Active  bool     `xml:"active"`
		Control string   `xml:"controlTopic"`
	}
	// wsListSessions lists sessions.
	wsListSessions struct {
		XMLName          xml.Name `xml:"ListSessions"`
		IncludeScheduled bool     `xml:"includeScheduled"`
	}
	// wsListSessionsResponse carries the catalogue.
	wsListSessionsResponse struct {
		XMLName  xml.Name         `xml:"ListSessionsResponse"`
		Sessions []wsSessionEntry `xml:"session"`
	}
	// wsSessionEntry is one catalogue row.
	wsSessionEntry struct {
		ID      string `xml:"id,attr"`
		Name    string `xml:"name,attr"`
		Active  bool   `xml:"active,attr"`
		Members int    `xml:"members,attr"`
	}
	// wsAddUser registers a user in the directory.
	wsAddUser struct {
		XMLName   xml.Name `xml:"AddUser"`
		ID        string   `xml:"id"`
		Name      string   `xml:"name"`
		Community string   `xml:"community"`
	}
	// wsOKResponse is a generic acknowledgement.
	wsOKResponse struct {
		XMLName xml.Name `xml:"OKResponse"`
		OK      bool     `xml:"ok"`
	}
	// wsRegisterCommunity registers a community collaboration service.
	wsRegisterCommunity struct {
		XMLName  xml.Name `xml:"RegisterCommunity"`
		Name     string   `xml:"name"`
		Kind     string   `xml:"kind"`
		Endpoint string   `xml:"endpoint"`
	}
	// wsLinkAdmire bridges a session to an Admire conference.
	wsLinkAdmire struct {
		XMLName    xml.Name `xml:"LinkAdmire"`
		SessionID  string   `xml:"session"`
		Conference string   `xml:"conference"`
		Endpoint   string   `xml:"endpoint"`
	}
)

// webUserID is the identity the web frontend acts under in XGSP.
const webUserID = "xgsp-web-server"

func (s *Server) startWebServer(ctx context.Context) error {
	xc, err := s.xgspClient(ctx, webUserID, webUserID)
	if err != nil {
		return err
	}

	svc := wsci.NewService("GlobalMMCS")
	svc.Register(wsci.Operation{
		Name: "CreateSession", Doc: "create an ad-hoc or scheduled session",
		Input: "CreateSession", Output: "CreateSessionResponse",
	}, func(ctx context.Context, action []byte) (any, error) {
		var req wsCreateSession
		if err := xml.Unmarshal(action, &req); err != nil {
			return nil, err
		}
		// Sessions created over the web act under the web server's
		// identity but record the human creator in the description.
		info, err := xc.Create(ctx, xgsp.CreateSession{
			Name:        req.Name,
			Description: "created via web by " + req.Creator,
			Start:       req.Start,
			End:         req.End,
		})
		if err != nil {
			return nil, err
		}
		return &wsSessionResponse{
			ID: info.ID, Name: info.Name, Active: info.Active, Control: info.ControlTopic,
		}, nil
	})
	svc.Register(wsci.Operation{
		Name: "ListSessions", Doc: "list active (and scheduled) sessions",
		Input: "ListSessions", Output: "ListSessionsResponse",
	}, func(ctx context.Context, action []byte) (any, error) {
		var req wsListSessions
		if err := xml.Unmarshal(action, &req); err != nil {
			return nil, err
		}
		list, err := xc.List(ctx, req.IncludeScheduled)
		if err != nil {
			return nil, err
		}
		resp := &wsListSessionsResponse{}
		for _, info := range list {
			resp.Sessions = append(resp.Sessions, wsSessionEntry{
				ID: info.ID, Name: info.Name, Active: info.Active, Members: len(info.Members),
			})
		}
		return resp, nil
	})
	svc.Register(wsci.Operation{
		Name: "AddUser", Doc: "register a user account",
		Input: "AddUser", Output: "OKResponse",
	}, func(ctx context.Context, action []byte) (any, error) {
		var req wsAddUser
		if err := xml.Unmarshal(action, &req); err != nil {
			return nil, err
		}
		if err := s.directory.AddUser(directory.User{
			ID: req.ID, Name: req.Name, Community: req.Community,
		}); err != nil {
			return nil, err
		}
		return &wsOKResponse{OK: true}, nil
	})
	svc.Register(wsci.Operation{
		Name: "RegisterCommunity", Doc: "register a community collaboration service",
		Input: "RegisterCommunity", Output: "OKResponse",
	}, func(ctx context.Context, action []byte) (any, error) {
		var req wsRegisterCommunity
		if err := xml.Unmarshal(action, &req); err != nil {
			return nil, err
		}
		if err := s.communities.Register(wsci.ServiceEntry{
			Community: req.Name, Kind: req.Kind, Endpoint: req.Endpoint,
		}); err != nil {
			return nil, err
		}
		if err := s.directory.AddCommunity(directory.Community{
			Name: req.Name, ControlEndpoint: req.Endpoint,
		}); err != nil && !errors.Is(err, directory.ErrExists) {
			return nil, err
		}
		return &wsOKResponse{OK: true}, nil
	})
	svc.Register(wsci.Operation{
		Name: "LinkAdmire", Doc: "bridge a session to an Admire conference",
		Input: "LinkAdmire", Output: "OKResponse",
	}, func(ctx context.Context, action []byte) (any, error) {
		var req wsLinkAdmire
		if err := xml.Unmarshal(action, &req); err != nil {
			return nil, err
		}
		if err := s.LinkAdmire(ctx, req.SessionID, req.Conference, req.Endpoint); err != nil {
			return nil, err
		}
		return &wsOKResponse{OK: true}, nil
	})

	ln, err := net.Listen("tcp", s.cfg.webAddr)
	if err != nil {
		return fmt.Errorf("globalmmcs: binding web server: %w", err)
	}
	s.webLn = ln
	mux := http.NewServeMux()
	mux.Handle("/ws", svc)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.webSrv = &http.Server{Handler: mux}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = s.webSrv.Serve(ln)
	}()
	return nil
}
