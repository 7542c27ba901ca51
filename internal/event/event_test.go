package event

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func sample() *Event {
	return &Event{
		ID:        42,
		Source:    "client-7",
		Topic:     "/xgsp/session/9/video",
		Kind:      KindRTP,
		TTL:       8,
		Reliable:  true,
		Timestamp: 1234567890123,
		Headers:   map[string]string{"codec": "h261", "ssrc": "beef"},
		Payload:   []byte("payload bytes"),
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindData:     "data",
		KindRTP:      "rtp",
		KindRTCP:     "rtcp",
		KindControl:  "control",
		KindChat:     "chat",
		KindPresence: "presence",
		Kind(99):     "kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestKindValid(t *testing.T) {
	if Kind(0).Valid() {
		t.Error("zero kind must be invalid")
	}
	if !KindChat.Valid() {
		t.Error("KindChat must be valid")
	}
	if kindMax.Valid() {
		t.Error("kindMax must be invalid")
	}
}

func TestNewDefaults(t *testing.T) {
	before := time.Now().UnixNano()
	e := New("/t", KindData, []byte("x"))
	if e.TTL != DefaultTTL {
		t.Errorf("TTL = %d, want %d", e.TTL, DefaultTTL)
	}
	if e.Timestamp < before {
		t.Error("timestamp not stamped")
	}
	if e.Topic != "/t" || e.Kind != KindData {
		t.Error("fields not set")
	}
}

func TestMarshalRoundtrip(t *testing.T) {
	e := sample()
	b := Marshal(e)
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(e, got) {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, e)
	}
}

func TestMarshalRoundtripMinimal(t *testing.T) {
	e := &Event{Topic: "/a", Kind: KindData}
	got, err := Unmarshal(Marshal(e))
	if err != nil {
		t.Fatal(err)
	}
	if got.Topic != "/a" || got.Kind != KindData || got.Headers != nil || got.Payload != nil {
		t.Fatalf("minimal roundtrip mismatch: %+v", got)
	}
}

func TestUnmarshalRejectsTrailingBytes(t *testing.T) {
	b := Marshal(sample())
	b = append(b, 0xFF)
	if _, err := Unmarshal(b); err == nil {
		t.Fatal("expected error for trailing bytes")
	}
}

func TestUnmarshalTruncated(t *testing.T) {
	b := Marshal(sample())
	for _, n := range []int{0, 1, 5, 10, 20, len(b) / 2, len(b) - 1} {
		if _, err := Unmarshal(b[:n]); err == nil {
			t.Errorf("Unmarshal of %d-byte prefix succeeded, want error", n)
		}
	}
}

func TestUnmarshalBadMagicAndVersion(t *testing.T) {
	b := Marshal(sample())
	bad := bytes.Clone(b)
	bad[0] = 0x00
	if _, err := Unmarshal(bad); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic error = %v, want ErrBadMagic", err)
	}
	bad = bytes.Clone(b)
	bad[1] = 99
	if _, err := Unmarshal(bad); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version error = %v, want ErrBadVersion", err)
	}
}

func TestUnmarshalRejectsInvalidKind(t *testing.T) {
	b := Marshal(sample())
	b[2] = 200
	if _, err := Unmarshal(b); err == nil {
		t.Fatal("expected error for invalid kind")
	}
}

func TestUnmarshalRejectsOversizedTopic(t *testing.T) {
	e := sample()
	e.Headers = nil
	e.Topic = strings.Repeat("x", MaxTopicLen+1)
	b := Marshal(e)
	if _, err := Unmarshal(b); err == nil {
		t.Fatal("expected error for oversized topic")
	}
}

func TestUnmarshalFuzzGarbage(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	for range 2000 {
		n := rng.IntN(200)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.UintN(256))
		}
		// Must never panic; error or not is fine.
		_, _ = Unmarshal(b)
	}
}

// Property: marshal→unmarshal is the identity for valid events.
func TestCodecPropertyRoundtrip(t *testing.T) {
	f := func(id uint64, src string, seg1, seg2 string, kind8 uint8, ttl uint8, rel bool, ts int64, payload []byte) bool {
		if len(src) > 64 || len(seg1) > 32 || len(seg2) > 32 || len(payload) > 4096 {
			return true // out of scope, limits tested elsewhere
		}
		if strings.ContainsAny(src, "\x00") {
			src = "s"
		}
		e := &Event{
			ID:        id,
			Source:    src,
			Topic:     "/" + sanitize(seg1) + "/" + sanitize(seg2),
			Kind:      Kind(kind8%uint8(kindMax-1)) + 1,
			TTL:       ttl,
			Reliable:  rel,
			Timestamp: ts,
			Payload:   payload,
		}
		if len(e.Payload) == 0 {
			e.Payload = nil
		}
		got, err := Unmarshal(Marshal(e))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(e, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func sanitize(s string) string {
	if s == "" {
		return "x"
	}
	return strings.Map(func(r rune) rune {
		if r == '/' || r == '*' || r == '#' {
			return '_'
		}
		return r
	}, s)
}

func TestCloneIsDeep(t *testing.T) {
	e := sample()
	c := e.Clone()
	c.Headers["codec"] = "changed"
	c.Payload[0] = 'X'
	if e.Headers["codec"] == "changed" {
		t.Error("clone shares headers map")
	}
	if e.Payload[0] == 'X' {
		t.Error("clone shares payload")
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Event)
		wantErr bool
	}{
		{"valid", func(e *Event) {}, false},
		{"empty topic", func(e *Event) { e.Topic = "" }, true},
		{"bad kind", func(e *Event) { e.Kind = 0 }, true},
		{"long topic", func(e *Event) { e.Topic = strings.Repeat("t", MaxTopicLen+1) }, true},
		{"big payload", func(e *Event) { e.Payload = make([]byte, MaxPayloadLen+1) }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := sample()
			tc.mutate(e)
			err := e.Validate()
			if (err != nil) != tc.wantErr {
				t.Fatalf("Validate() err = %v, wantErr = %v", err, tc.wantErr)
			}
		})
	}
}

func TestKeyIdentity(t *testing.T) {
	a := &Event{Source: "s", ID: 1}
	b := &Event{Source: "s", ID: 1}
	if a.Key() != b.Key() {
		t.Error("identical source/id must produce equal keys")
	}
	c := &Event{Source: "s2", ID: 1}
	if a.Key() == c.Key() {
		t.Error("different sources must produce different keys")
	}
}

func TestStringContainsEssentials(t *testing.T) {
	s := sample().String()
	for _, want := range []string{"client-7", "#42", "rtp", "/xgsp/session/9/video"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func BenchmarkEventMarshal(b *testing.B) {
	e := sample()
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for b.Loop() {
		buf = AppendMarshal(buf[:0], e)
	}
}

func BenchmarkEventUnmarshal(b *testing.B) {
	buf := Marshal(sample())
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}
