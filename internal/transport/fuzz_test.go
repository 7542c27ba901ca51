package transport

import (
	"bytes"
	"encoding/binary"
	"net"
	"reflect"
	"testing"
	"unsafe"

	"github.com/globalmmcs/globalmmcs/internal/event"
)

// wireStream length-frames the events the way tcpConn.Send does.
func wireStream(events ...*event.Event) []byte {
	var s []byte
	for _, e := range events {
		f := event.Marshal(e)
		s = binary.BigEndian.AppendUint32(s, uint32(len(f)))
		s = append(s, f...)
	}
	return s
}

// validPrefix is the reference reading of a byte stream: the events of
// every whole, decodable frame up to the first one that is neither.
func validPrefix(stream []byte) []*event.Event {
	var out []*event.Event
	for len(stream) >= 4 {
		n := int(binary.BigEndian.Uint32(stream))
		if n == 0 || n > event.MaxWireLen || len(stream) < 4+n {
			break
		}
		e, err := event.Unmarshal(stream[4 : 4+n])
		if err != nil {
			break
		}
		out = append(out, e)
		stream = stream[4+n:]
	}
	return out
}

// aliases reports whether p lies inside buf.
func aliases(p, buf []byte) bool {
	at := uintptr(unsafe.Pointer(unsafe.SliceData(p)))
	base := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	return at >= base && at+uintptr(len(p)) <= base+uintptr(len(buf))
}

// FuzzTCPRecvBurst writes an arbitrary byte stream — seeded with valid
// frames, corrupt frames and frames cut short — through a net.Pipe in
// writes split at fuzzer-chosen sizes, and drains the other end with
// RecvBurst. However the bytes arrive, the events received are exactly
// the stream's valid prefix, each decoded in place (its payload aliases
// the receive chunk), and the conn then fails instead of inventing or
// skipping anything.
func FuzzTCPRecvBurst(f *testing.F) {
	a, b := burstEvent(1), burstEvent(2)
	b.Headers = map[string]string{"k": "v"}
	b.RSeq, b.Mask = 9, 0xf0
	c := event.New("/burst/other", event.KindRTP, bytes.Repeat([]byte{0xd5}, 172))
	c.Source, c.ID = "burst-src-2", 3
	valid := wireStream(a, b, c, a, c)
	f.Add(valid, []byte{})
	f.Add(valid, []byte{1})
	f.Add(valid, []byte{3, 200, 7, 1, 90})
	f.Add(valid[:len(valid)-5], []byte{64})
	flipped := bytes.Clone(valid)
	flipped[len(wireStream(a))+4] ^= 0xff // second frame's magic byte
	f.Add(flipped, []byte{17})
	f.Add(append(wireStream(a), 0, 0, 0, 0), []byte{2})               // zero-length frame
	f.Add(append(wireStream(a, c), 0xff, 0xff, 0xff, 0xff), []byte{}) // oversized frame
	f.Add([]byte{0, 0}, []byte{})

	f.Fuzz(func(t *testing.T, stream, cuts []byte) {
		want := validPrefix(stream)
		client, server := net.Pipe()
		go func() {
			defer client.Close()
			for i, rest := 0, stream; len(rest) > 0; i++ {
				n := len(rest)
				if len(cuts) > 0 {
					n = min(n, 1+int(cuts[i%len(cuts)]))
				}
				if _, err := client.Write(rest[:n]); err != nil {
					return
				}
				rest = rest[n:]
			}
		}()
		conn := newTCPConn(server)
		defer conn.Close()
		var got []*event.Event
		for {
			burst, err := conn.RecvBurst(nil, 4)
			for _, e := range burst {
				if len(e.Payload) > 0 && !aliases(e.Payload, conn.rb) {
					t.Fatalf("event %d: payload was copied out of the receive chunk", len(got))
				}
				got = append(got, e)
			}
			if err != nil {
				break
			}
			if len(burst) == 0 {
				t.Fatal("RecvBurst returned no events and no error")
			}
		}
		if len(got) != len(want) {
			t.Fatalf("received %d events, the stream's valid prefix holds %d", len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("event %d:\n got %+v\nwant %+v", i, got[i], want[i])
			}
		}
	})
}
