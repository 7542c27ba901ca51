// Package sip implements the RFC 3261 subset Global-MMCS needs: a
// message parser and serializer, an SDP body codec, a registrar, and the
// SIP gateway that translates SIP calls into XGSP sessions and redirects
// endpoint RTP into the broker through RTP proxies. It also carries
// MESSAGE-based instant messaging and SUBSCRIBE/NOTIFY presence, which
// the paper's SIP servers provide for IM-capable clients.
package sip

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Methods supported by this subset.
const (
	MethodRegister  = "REGISTER"
	MethodInvite    = "INVITE"
	MethodAck       = "ACK"
	MethodBye       = "BYE"
	MethodOptions   = "OPTIONS"
	MethodMessage   = "MESSAGE"
	MethodSubscribe = "SUBSCRIBE"
	MethodNotify    = "NOTIFY"
	MethodInfo      = "INFO"
)

// Common status codes.
const (
	StatusTrying             = 100
	StatusRinging            = 180
	StatusOK                 = 200
	StatusBadRequest         = 400
	StatusUnauthorized       = 401
	StatusNotFound           = 404
	StatusMethodNotAllowed   = 405
	StatusBusyHere           = 486
	StatusTemporarilyUnavail = 480
	StatusServerError        = 500
	StatusDecline            = 603
)

// StatusText returns the reason phrase for a status code.
func StatusText(code int) string {
	switch code {
	case StatusTrying:
		return "Trying"
	case StatusRinging:
		return "Ringing"
	case StatusOK:
		return "OK"
	case StatusBadRequest:
		return "Bad Request"
	case StatusUnauthorized:
		return "Unauthorized"
	case StatusNotFound:
		return "Not Found"
	case StatusMethodNotAllowed:
		return "Method Not Allowed"
	case StatusBusyHere:
		return "Busy Here"
	case StatusTemporarilyUnavail:
		return "Temporarily Unavailable"
	case StatusServerError:
		return "Server Internal Error"
	case StatusDecline:
		return "Decline"
	default:
		return "Unknown"
	}
}

// Header is one SIP header field.
type Header struct {
	Name  string
	Value string
}

// Message is a SIP request or response. A request has Method set; a
// response has StatusCode set.
type Message struct {
	// Request fields.
	Method     string
	RequestURI string
	// Response fields.
	StatusCode   int
	ReasonPhrase string

	Headers []Header
	Body    []byte
}

// IsRequest reports whether m is a request.
func (m *Message) IsRequest() bool { return m.Method != "" }

// Get returns the first header value with the given name
// (case-insensitive), or "".
func (m *Message) Get(name string) string {
	for _, h := range m.Headers {
		if strings.EqualFold(h.Name, name) {
			return h.Value
		}
	}
	return ""
}

// GetAll returns all values of a header.
func (m *Message) GetAll(name string) []string {
	var out []string
	for _, h := range m.Headers {
		if strings.EqualFold(h.Name, name) {
			out = append(out, h.Value)
		}
	}
	return out
}

// Set replaces the first occurrence of a header (appending if absent).
func (m *Message) Set(name, value string) {
	for i, h := range m.Headers {
		if strings.EqualFold(h.Name, name) {
			m.Headers[i].Value = value
			return
		}
	}
	m.Headers = append(m.Headers, Header{Name: name, Value: value})
}

// Add appends a header occurrence.
func (m *Message) Add(name, value string) {
	m.Headers = append(m.Headers, Header{Name: name, Value: value})
}

// Del removes all occurrences of a header.
func (m *Message) Del(name string) {
	out := m.Headers[:0]
	for _, h := range m.Headers {
		if !strings.EqualFold(h.Name, name) {
			out = append(out, h)
		}
	}
	m.Headers = out
}

// CallID returns the Call-ID header.
func (m *Message) CallID() string { return m.Get("Call-ID") }

// CSeq returns the CSeq sequence number and method.
func (m *Message) CSeq() (uint32, string, error) {
	v := m.Get("CSeq")
	if v == "" {
		return 0, "", errors.New("sip: missing CSeq")
	}
	parts := strings.Fields(v)
	if len(parts) != 2 {
		return 0, "", fmt.Errorf("sip: malformed CSeq %q", v)
	}
	n, err := strconv.ParseUint(parts[0], 10, 32)
	if err != nil {
		return 0, "", fmt.Errorf("sip: malformed CSeq number %q: %w", parts[0], err)
	}
	return uint32(n), parts[1], nil
}

// Marshal serialises the message, computing Content-Length.
func (m *Message) Marshal() []byte {
	var b bytes.Buffer
	if m.IsRequest() {
		fmt.Fprintf(&b, "%s %s SIP/2.0\r\n", m.Method, m.RequestURI)
	} else {
		reason := m.ReasonPhrase
		if reason == "" {
			reason = StatusText(m.StatusCode)
		}
		fmt.Fprintf(&b, "SIP/2.0 %d %s\r\n", m.StatusCode, reason)
	}
	for _, h := range m.Headers {
		if strings.EqualFold(h.Name, "Content-Length") {
			continue // recomputed below
		}
		fmt.Fprintf(&b, "%s: %s\r\n", h.Name, h.Value)
	}
	fmt.Fprintf(&b, "Content-Length: %d\r\n\r\n", len(m.Body))
	b.Write(m.Body)
	return b.Bytes()
}

// Parse errors.
var (
	ErrMalformed = errors.New("sip: malformed message")
)

// Parse decodes one SIP message from a datagram.
func Parse(data []byte) (*Message, error) {
	head, body, found := bytes.Cut(data, []byte("\r\n\r\n"))
	if !found {
		// Tolerate bare-LF senders.
		head, body, found = bytes.Cut(data, []byte("\n\n"))
		if !found {
			return nil, fmt.Errorf("%w: no header terminator", ErrMalformed)
		}
	}
	lines := splitLines(string(head))
	if len(lines) == 0 {
		return nil, fmt.Errorf("%w: empty message", ErrMalformed)
	}
	m := &Message{}
	if err := parseStartLine(lines[0], m); err != nil {
		return nil, err
	}
	for _, line := range lines[1:] {
		if line == "" {
			continue
		}
		name, value, ok := strings.Cut(line, ":")
		if !ok {
			return nil, fmt.Errorf("%w: header line %q", ErrMalformed, line)
		}
		m.Headers = append(m.Headers, Header{
			Name:  strings.TrimSpace(name),
			Value: strings.TrimSpace(value),
		})
	}
	// Honour Content-Length when present (datagram may carry padding).
	if cl := m.Get("Content-Length"); cl != "" {
		n, err := strconv.Atoi(cl)
		if err != nil || n < 0 || n > len(body) {
			return nil, fmt.Errorf("%w: content-length %q with %d body bytes", ErrMalformed, cl, len(body))
		}
		body = body[:n]
	}
	if len(body) > 0 {
		m.Body = bytes.Clone(body)
	}
	return m, nil
}

func splitLines(s string) []string {
	raw := strings.Split(s, "\n")
	out := make([]string, 0, len(raw))
	for _, l := range raw {
		out = append(out, strings.TrimRight(l, "\r"))
	}
	return out
}

func parseStartLine(line string, m *Message) error {
	if strings.HasPrefix(line, "SIP/2.0 ") {
		rest := strings.TrimPrefix(line, "SIP/2.0 ")
		codeStr, reason, _ := strings.Cut(rest, " ")
		code, err := strconv.Atoi(codeStr)
		if err != nil || code < 100 || code > 699 {
			return fmt.Errorf("%w: status line %q", ErrMalformed, line)
		}
		m.StatusCode = code
		m.ReasonPhrase = reason
		return nil
	}
	parts := strings.Fields(line)
	if len(parts) != 3 || parts[2] != "SIP/2.0" {
		return fmt.Errorf("%w: request line %q", ErrMalformed, line)
	}
	m.Method = parts[0]
	m.RequestURI = parts[1]
	return nil
}

// URI is a parsed sip: URI of the form sip:user@host[:port][;params].
type URI struct {
	User string
	Host string
	Port int
}

// ParseURI decodes a sip: or <sip:> URI, ignoring parameters and display
// names.
func ParseURI(s string) (URI, error) {
	s = strings.TrimSpace(s)
	// Strip display name and angle brackets: `"Bob" <sip:bob@h>;tag=x`.
	if i := strings.IndexByte(s, '<'); i >= 0 {
		j := strings.IndexByte(s, '>')
		if j < i {
			return URI{}, fmt.Errorf("%w: uri %q", ErrMalformed, s)
		}
		s = s[i+1 : j]
	} else if i := strings.IndexByte(s, ';'); i >= 0 {
		s = s[:i]
	}
	rest, ok := strings.CutPrefix(s, "sip:")
	if !ok {
		return URI{}, fmt.Errorf("%w: uri %q lacks sip: scheme", ErrMalformed, s)
	}
	if i := strings.IndexByte(rest, ';'); i >= 0 {
		rest = rest[:i]
	}
	var u URI
	if user, host, found := strings.Cut(rest, "@"); found {
		u.User = user
		rest = host
	} else {
		rest = user
	}
	host, portStr, found := strings.Cut(rest, ":")
	u.Host = host
	if found {
		p, err := strconv.Atoi(portStr)
		if err != nil || p <= 0 || p > 65535 {
			return URI{}, fmt.Errorf("%w: uri port %q", ErrMalformed, portStr)
		}
		u.Port = p
	}
	if u.Host == "" {
		return URI{}, fmt.Errorf("%w: uri %q lacks host", ErrMalformed, s)
	}
	return u, nil
}

// String renders the URI.
func (u URI) String() string {
	var b strings.Builder
	b.WriteString("sip:")
	if u.User != "" {
		b.WriteString(u.User)
		b.WriteByte('@')
	}
	b.WriteString(u.Host)
	if u.Port != 0 {
		fmt.Fprintf(&b, ":%d", u.Port)
	}
	return b.String()
}

// Address returns host:port with a default SIP port of 5060.
func (u URI) Address() string {
	port := u.Port
	if port == 0 {
		port = 5060
	}
	return fmt.Sprintf("%s:%d", u.Host, port)
}

// NewRequest builds a request with the mandatory headers.
func NewRequest(method, requestURI, from, to, callID string, cseq uint32) *Message {
	m := &Message{Method: method, RequestURI: requestURI}
	m.Add("Via", "SIP/2.0/UDP placeholder;branch=z9hG4bK"+callID+strconv.FormatUint(uint64(cseq), 10))
	m.Add("From", from)
	m.Add("To", to)
	m.Add("Call-ID", callID)
	m.Add("CSeq", fmt.Sprintf("%d %s", cseq, method))
	m.Add("Max-Forwards", "70")
	return m
}

// NewResponse builds a response echoing the dialogue headers of req.
func NewResponse(req *Message, code int) *Message {
	m := &Message{StatusCode: code}
	for _, name := range []string{"Via", "From", "To", "Call-ID", "CSeq"} {
		for _, v := range req.GetAll(name) {
			m.Add(name, v)
		}
	}
	return m
}
