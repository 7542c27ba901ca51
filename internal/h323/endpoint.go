package h323

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"
)

// rasTimeout bounds each RAS transaction.
const rasTimeout = 5 * time.Second

// Endpoint is a minimal H.323 terminal for examples and tests: it
// discovers and registers with a gatekeeper, requests admission, places
// a call through the gateway, exchanges capabilities and opens logical
// channels.
type Endpoint struct {
	alias string

	ras        net.PacketConn
	rasAddr    *net.UDPAddr
	endpointID string
	signalAddr string

	nextCall atomic.Uint64
}

// NewEndpoint creates a terminal for alias, targeting the gatekeeper's
// RAS address.
func NewEndpoint(alias, gatekeeperAddr string) (*Endpoint, error) {
	ua, err := net.ResolveUDPAddr("udp", gatekeeperAddr)
	if err != nil {
		return nil, fmt.Errorf("h323: resolving gatekeeper: %w", err)
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("h323: binding RAS socket: %w", err)
	}
	return &Endpoint{alias: alias, ras: pc, rasAddr: ua}, nil
}

// Close releases the endpoint's RAS socket.
func (e *Endpoint) Close() { e.ras.Close() }

// rasTransact sends one RAS message and waits for the reply.
func (e *Endpoint) rasTransact(req *Message) (*Message, error) {
	b, err := req.Marshal()
	if err != nil {
		return nil, err
	}
	if _, err := e.ras.WriteTo(b, e.rasAddr); err != nil {
		return nil, fmt.Errorf("h323: sending %s: %w", req.Type, err)
	}
	if err := e.ras.SetReadDeadline(time.Now().Add(rasTimeout)); err != nil {
		return nil, err
	}
	buf := make([]byte, maxRASDatagram)
	n, _, err := e.ras.ReadFrom(buf)
	if err != nil {
		return nil, fmt.Errorf("h323: waiting for %s reply: %w", req.Type, err)
	}
	return Unmarshal(buf[:n:n])
}

// Discover sends GRQ and records the gatekeeper's signalling address.
func (e *Endpoint) Discover() error {
	resp, err := e.rasTransact(&Message{Type: MsgGRQ, Alias: e.alias})
	if err != nil {
		return err
	}
	if resp.Type != MsgGCF {
		return fmt.Errorf("h323: discovery rejected: %s (%s)", resp.Type, resp.Reason)
	}
	e.signalAddr = resp.SignalAddr
	return nil
}

// Register sends RRQ and records the endpoint identifier.
func (e *Endpoint) Register() error {
	resp, err := e.rasTransact(&Message{Type: MsgRRQ, Alias: e.alias})
	if err != nil {
		return err
	}
	if resp.Type != MsgRCF {
		return fmt.Errorf("h323: registration rejected: %s (%s)", resp.Type, resp.Reason)
	}
	e.endpointID = resp.EndpointID
	return nil
}

// Call is an established H.323 call into a Global-MMCS session.
type Call struct {
	endpoint *Endpoint
	conn     net.Conn
	// ID is the call identifier used across RAS and signalling.
	ID string
	// Conference is the joined session id.
	Conference string
	// Channels maps logical channel number to the gateway's RTP address
	// for that channel (where the endpoint must send media).
	Channels map[uint32]string

	nextChannel uint32
}

// PlaceCall runs admission, call establishment and H.245 setup, opening
// one logical channel per requested media kind. localRTP maps media kind
// ("audio"/"video") to the endpoint's receive address for that media.
func (e *Endpoint) PlaceCall(sessionID string, localRTP map[string]string) (*Call, error) {
	if e.endpointID == "" {
		return nil, errors.New("h323: endpoint not registered")
	}
	if e.signalAddr == "" {
		return nil, errors.New("h323: no signalling address; run Discover first")
	}
	callID := fmt.Sprintf("%s-call-%d", e.alias, e.nextCall.Add(1))
	acf, err := e.rasTransact(&Message{
		Type:       MsgARQ,
		EndpointID: e.endpointID,
		CallID:     callID,
		DestAlias:  sessionID,
		Bandwidth:  6400, // 640 kbit/s in 100 bit/s units
	})
	if err != nil {
		return nil, err
	}
	if acf.Type != MsgACF {
		return nil, fmt.Errorf("h323: admission rejected: %s (%s)", acf.Type, acf.Reason)
	}
	signalAddr := acf.SignalAddr
	if signalAddr == "" {
		signalAddr = e.signalAddr
	}
	conn, err := net.DialTimeout("tcp", signalAddr, rasTimeout)
	if err != nil {
		return nil, fmt.Errorf("h323: dialling gateway: %w", err)
	}
	c := &Call{endpoint: e, conn: conn, ID: callID, Channels: make(map[uint32]string)}
	fail := func(err error) (*Call, error) {
		conn.Close()
		return nil, err
	}
	if err := writeFramed(conn, &Message{
		Type:       MsgSetup,
		CallID:     callID,
		Alias:      e.alias,
		Conference: sessionID,
	}); err != nil {
		return fail(err)
	}
	// Expect CallProceeding then Connect.
	for {
		msg, err := readFramed(conn)
		if err != nil {
			return fail(fmt.Errorf("h323: waiting for connect: %w", err))
		}
		switch msg.Type {
		case MsgCallProceeding, MsgAlerting:
			continue
		case MsgConnect:
			c.Conference = msg.Conference
		case MsgReleaseComplete:
			return fail(fmt.Errorf("h323: call released: %s", msg.Reason))
		default:
			return fail(fmt.Errorf("h323: unexpected %s during setup", msg.Type))
		}
		break
	}
	// H.245: capability exchange and master/slave determination.
	if err := writeFramed(conn, &Message{
		Type:         MsgTerminalCapabilitySet,
		Capabilities: []string{"PCMU", "H261"},
	}); err != nil {
		return fail(err)
	}
	if err := writeFramed(conn, &Message{Type: MsgMasterSlaveDetermination}); err != nil {
		return fail(err)
	}
	// Consume TCSAck, gateway TCS, MSDAck in any order.
	seen := 0
	for seen < 3 {
		msg, err := readFramed(conn)
		if err != nil {
			return fail(fmt.Errorf("h323: during h245 setup: %w", err))
		}
		switch msg.Type {
		case MsgTerminalCapabilitySetAck, MsgMasterSlaveDeterminationAck:
			seen++
		case MsgTerminalCapabilitySet:
			seen++
			if err := writeFramed(conn, &Message{Type: MsgTerminalCapabilitySetAck}); err != nil {
				return fail(err)
			}
		case MsgReleaseComplete:
			return fail(fmt.Errorf("h323: released during h245: %s", msg.Reason))
		}
	}
	// Open logical channels.
	for kind, addr := range localRTP {
		c.nextChannel++
		if err := writeFramed(conn, &Message{
			Type:      MsgOpenLogicalChannel,
			Channel:   c.nextChannel,
			MediaKind: kind,
			RTPAddr:   addr,
		}); err != nil {
			return fail(err)
		}
		ack, err := readFramed(conn)
		if err != nil {
			return fail(fmt.Errorf("h323: waiting for OLC ack: %w", err))
		}
		switch ack.Type {
		case MsgOpenLogicalChannelAck:
			c.Channels[ack.Channel] = ack.RTPAddr
		case MsgCloseLogicalChannel:
			return fail(fmt.Errorf("h323: channel refused: %s", ack.Reason))
		default:
			return fail(fmt.Errorf("h323: unexpected %s for OLC", ack.Type))
		}
	}
	return c, nil
}

// Hangup ends the call with H.245 EndSession and RAS disengage.
func (c *Call) Hangup() error {
	defer c.conn.Close()
	if err := writeFramed(c.conn, &Message{Type: MsgEndSessionCommand, CallID: c.ID}); err != nil {
		return err
	}
	// Wait for ReleaseComplete (best effort).
	_ = c.conn.SetReadDeadline(time.Now().Add(rasTimeout))
	for {
		msg, err := readFramed(c.conn)
		if err != nil {
			break
		}
		if msg.Type == MsgReleaseComplete {
			break
		}
	}
	_, err := c.endpoint.rasTransact(&Message{Type: MsgDRQ, CallID: c.ID})
	return err
}
