package sip

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// responseTimeout bounds each endpoint transaction.
const responseTimeout = 10 * time.Second

// Endpoint is a minimal SIP user agent used by the examples and tests:
// it can register, place calls to Global-MMCS sessions, send pager-mode
// MESSAGEs and watch presence.
type Endpoint struct {
	user       string
	serverAddr *net.UDPAddr
	pc         net.PacketConn

	nextCSeq atomic.Uint32
	nextCall atomic.Uint64

	mu      sync.Mutex
	waiters map[string]chan *Message // Call-ID+CSeq → response
	closed  bool

	// Requests delivers inbound requests (NOTIFY, MESSAGE) after the
	// endpoint auto-replies 200.
	requests chan *Message

	wg   sync.WaitGroup
	done chan struct{}
	once sync.Once
}

// NewEndpoint creates a UA for user targeting the given server address.
func NewEndpoint(user, serverAddr string) (*Endpoint, error) {
	ua, err := net.ResolveUDPAddr("udp", serverAddr)
	if err != nil {
		return nil, fmt.Errorf("sip: resolving server %s: %w", serverAddr, err)
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("sip: binding endpoint: %w", err)
	}
	e := &Endpoint{
		user:       user,
		serverAddr: ua,
		pc:         pc,
		waiters:    make(map[string]chan *Message),
		requests:   make(chan *Message, 64),
		done:       make(chan struct{}),
	}
	e.wg.Add(1)
	go e.readLoop()
	return e, nil
}

// Addr returns the endpoint's UDP address.
func (e *Endpoint) Addr() string { return e.pc.LocalAddr().String() }

// User returns the endpoint's user name.
func (e *Endpoint) User() string { return e.user }

// Requests delivers inbound NOTIFY/MESSAGE requests.
func (e *Endpoint) Requests() <-chan *Message { return e.requests }

// Close shuts the endpoint down.
func (e *Endpoint) Close() {
	e.once.Do(func() { close(e.done) })
	e.pc.Close()
	e.wg.Wait()
}

func (e *Endpoint) readLoop() {
	defer e.wg.Done()
	buf := make([]byte, maxSIPDatagram)
	for {
		n, raddr, err := e.pc.ReadFrom(buf)
		if err != nil {
			return
		}
		msg, err := Parse(buf[:n:n])
		if err != nil {
			continue
		}
		if msg.IsRequest() {
			// Auto-acknowledge and surface to the application.
			resp := NewResponse(msg, StatusOK)
			_, _ = e.pc.WriteTo(resp.Marshal(), raddr)
			select {
			case e.requests <- msg:
			default:
			}
			continue
		}
		cseq, _, err := msg.CSeq()
		if err != nil {
			continue
		}
		key := msg.CallID() + "/" + strconv.FormatUint(uint64(cseq), 10)
		e.mu.Lock()
		ch := e.waiters[key]
		e.mu.Unlock()
		if ch != nil {
			select {
			case ch <- msg:
			default:
			}
		}
	}
}

// transact sends a request and waits for a final (>=200) response.
func (e *Endpoint) transact(req *Message) (*Message, error) {
	cseq, _, err := req.CSeq()
	if err != nil {
		return nil, err
	}
	key := req.CallID() + "/" + strconv.FormatUint(uint64(cseq), 10)
	ch := make(chan *Message, 4)
	e.mu.Lock()
	e.waiters[key] = ch
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		delete(e.waiters, key)
		e.mu.Unlock()
	}()
	if _, err := e.pc.WriteTo(req.Marshal(), e.serverAddr); err != nil {
		return nil, fmt.Errorf("sip: sending %s: %w", req.Method, err)
	}
	deadline := time.NewTimer(responseTimeout)
	defer deadline.Stop()
	for {
		select {
		case resp := <-ch:
			if resp.StatusCode >= 200 {
				return resp, nil
			}
			// Provisional (100/180); keep waiting.
		case <-deadline.C:
			return nil, fmt.Errorf("sip: %s timed out", req.Method)
		case <-e.done:
			return nil, errors.New("sip: endpoint closed")
		}
	}
}

func (e *Endpoint) newCallID() string {
	return fmt.Sprintf("%s-%d@%s", e.user, e.nextCall.Add(1), e.Addr())
}

func (e *Endpoint) fromHeader(domain string) string {
	return fmt.Sprintf("<sip:%s@%s>;tag=%s", e.user, domain, e.user)
}

// Register registers the endpoint's contact with the server for the
// given duration.
func (e *Endpoint) Register(domain string, expires time.Duration) error {
	req := NewRequest(MethodRegister, "sip:"+domain,
		e.fromHeader(domain), "<sip:"+e.user+"@"+domain+">",
		e.newCallID(), e.nextCSeq.Add(1))
	req.Set("Contact", "<sip:"+e.user+"@"+e.Addr()+">")
	req.Set("Expires", strconv.Itoa(int(expires/time.Second)))
	req.Set("Via", "SIP/2.0/UDP "+e.Addr()+";branch=z9hG4bKreg")
	resp, err := e.transact(req)
	if err != nil {
		return err
	}
	if resp.StatusCode != StatusOK {
		return fmt.Errorf("sip: register rejected: %d %s", resp.StatusCode, resp.ReasonPhrase)
	}
	return nil
}

// Unregister removes the binding.
func (e *Endpoint) Unregister(domain string) error {
	return e.Register(domain, 0)
}

// Call is an established session from this endpoint.
type Call struct {
	// ID is the SIP Call-ID.
	ID string
	// Remote is the answered SDP: where to send RTP.
	Remote *SDP
	target string
	domain string
	cseq   uint32
}

// AudioAddr returns the answerer's audio RTP address.
func (c *Call) AudioAddr() (string, bool) { return c.Remote.MediaAddress("audio") }

// VideoAddr returns the answerer's video RTP address.
func (c *Call) VideoAddr() (string, bool) { return c.Remote.MediaAddress("video") }

// Invite places a call to target (e.g. a session id) offering the given
// local RTP ports, and completes the handshake with an ACK.
func (e *Endpoint) Invite(domain, target string, audioPort, videoPort int) (*Call, error) {
	callID := e.newCallID()
	cseq := e.nextCSeq.Add(1)
	uri := "sip:" + target + "@" + domain
	req := NewRequest(MethodInvite, uri,
		e.fromHeader(domain), "<"+uri+">", callID, cseq)
	req.Set("Via", "SIP/2.0/UDP "+e.Addr()+";branch=z9hG4bKinv"+callID)
	req.Set("Contact", "<sip:"+e.user+"@"+e.Addr()+">")
	req.Set("Content-Type", "application/sdp")
	offer := SDP{
		Origin:      e.user,
		SessionName: "call",
		Connection:  hostOf(e.Addr()),
	}
	if audioPort > 0 {
		offer.Media = append(offer.Media, SDPMedia{Kind: "audio", Port: audioPort, PayloadTypes: []int{0}})
	}
	if videoPort > 0 {
		offer.Media = append(offer.Media, SDPMedia{Kind: "video", Port: videoPort, PayloadTypes: []int{31}})
	}
	req.Body = offer.Marshal()
	resp, err := e.transact(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != StatusOK {
		return nil, fmt.Errorf("sip: invite rejected: %d %s", resp.StatusCode, resp.ReasonPhrase)
	}
	answer, err := ParseSDP(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("sip: parsing answer: %w", err)
	}
	ack := NewRequest(MethodAck, uri, e.fromHeader(domain), resp.Get("To"), callID, cseq)
	ack.Set("Via", "SIP/2.0/UDP "+e.Addr()+";branch=z9hG4bKack"+callID)
	if _, err := e.pc.WriteTo(ack.Marshal(), e.serverAddr); err != nil {
		return nil, fmt.Errorf("sip: sending ack: %w", err)
	}
	return &Call{ID: callID, Remote: answer, target: target, domain: domain, cseq: cseq}, nil
}

// Hangup ends a call with BYE.
func (e *Endpoint) Hangup(c *Call) error {
	uri := "sip:" + c.target + "@" + c.domain
	req := NewRequest(MethodBye, uri,
		e.fromHeader(c.domain), "<"+uri+">", c.ID, e.nextCSeq.Add(1))
	req.Set("Via", "SIP/2.0/UDP "+e.Addr()+";branch=z9hG4bKbye"+c.ID)
	resp, err := e.transact(req)
	if err != nil {
		return err
	}
	if resp.StatusCode != StatusOK {
		return fmt.Errorf("sip: bye rejected: %d", resp.StatusCode)
	}
	return nil
}

// SendMessage sends a pager-mode instant message to target (a user or a
// session id).
func (e *Endpoint) SendMessage(domain, target, body string) error {
	uri := "sip:" + target + "@" + domain
	req := NewRequest(MethodMessage, uri,
		e.fromHeader(domain), "<"+uri+">", e.newCallID(), e.nextCSeq.Add(1))
	req.Set("Via", "SIP/2.0/UDP "+e.Addr()+";branch=z9hG4bKmsg")
	req.Set("Content-Type", "text/plain")
	req.Body = []byte(body)
	resp, err := e.transact(req)
	if err != nil {
		return err
	}
	if resp.StatusCode != StatusOK {
		return fmt.Errorf("sip: message rejected: %d", resp.StatusCode)
	}
	return nil
}

// WatchPresence subscribes to a user's presence; NOTIFYs arrive on
// Requests().
func (e *Endpoint) WatchPresence(domain, target string) error {
	uri := "sip:" + target + "@" + domain
	req := NewRequest(MethodSubscribe, uri,
		e.fromHeader(domain), "<"+uri+">", e.newCallID(), e.nextCSeq.Add(1))
	req.Set("Via", "SIP/2.0/UDP "+e.Addr()+";branch=z9hG4bKsub")
	req.Set("Event", "presence")
	req.Set("Expires", "3600")
	resp, err := e.transact(req)
	if err != nil {
		return err
	}
	if resp.StatusCode != StatusOK {
		return fmt.Errorf("sip: subscribe rejected: %d", resp.StatusCode)
	}
	return nil
}
