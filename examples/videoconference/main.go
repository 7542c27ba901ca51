// Videoconference: the paper's core scenario — heterogeneous endpoints in
// one session. A native client publishes video, a SIP endpoint and an
// H.323 terminal join through their respective gateways, and everybody's
// media meets on the session topics. Floor control arbitrates who may
// send.
//
// Run with:
//
//	go run ./examples/videoconference
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"github.com/globalmmcs/globalmmcs"
)

func main() {
	if err := run(context.Background()); err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context) error {
	srv, err := globalmmcs.Start(ctx)
	if err != nil {
		return err
	}
	defer srv.Stop()
	readyCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := srv.WaitReady(readyCtx); err != nil {
		return err
	}

	// The conference owner creates the session.
	host, err := srv.Client(ctx, "prof-fox")
	if err != nil {
		return err
	}
	defer host.Close()
	session, err := host.CreateSession(ctx, "grid-computing-seminar")
	if err != nil {
		return err
	}
	if err := session.Join(ctx, "podium"); err != nil {
		return err
	}
	fmt.Printf("seminar session %s created\n", session.ID())

	// --- A SIP endpoint joins through the SIP gateway. ----------------
	sipEP, err := globalmmcs.DialSIPEndpoint("wenjun", srv.SIPAddr())
	if err != nil {
		return err
	}
	defer sipEP.Close()
	if err := sipEP.Register(srv.SIPDomain(), time.Hour); err != nil {
		return err
	}
	sipAudio, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer sipAudio.Close()
	sipCall, err := sipEP.Invite(srv.SIPDomain(), session.ID(),
		sipAudio.LocalAddr().(*net.UDPAddr).Port, 0)
	if err != nil {
		return err
	}
	fmt.Println("SIP endpoint wenjun joined via gateway")

	// --- An H.323 terminal joins through gatekeeper + gateway. --------
	h323EP, err := globalmmcs.DialH323Endpoint("auyar", srv.GatekeeperAddr())
	if err != nil {
		return err
	}
	defer h323EP.Close()
	if err := h323EP.Discover(); err != nil {
		return err
	}
	if err := h323EP.Register(); err != nil {
		return err
	}
	h323Audio, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer h323Audio.Close()
	h323Call, err := h323EP.PlaceCall(session.ID(), map[string]string{
		"audio": h323Audio.LocalAddr().String(),
	})
	if err != nil {
		return err
	}
	fmt.Println("H.323 terminal auyar joined via gatekeeper/gateway")

	// Membership now spans three communities.
	if err := session.Refresh(ctx); err != nil {
		return err
	}
	for _, p := range session.Participants() {
		community := p.Community
		if community == "" {
			community = "native"
		}
		fmt.Printf("member: %s (%s)\n", p.UserID, community)
	}

	// --- Floor control. ------------------------------------------------
	if err := session.RequestFloor(ctx, globalmmcs.Video); err != nil {
		return err
	}
	fmt.Println("prof-fox holds the video floor; streaming 2 seconds of video")

	// Watch the session's raw event stream while the video flows: every
	// modality — RTP, chat, signalling — is an event on the broker
	// substrate, and Session.Events taps it directly.
	events, err := session.Events(ctx, globalmmcs.WithBuffer(1024))
	if err != nil {
		return err
	}
	defer events.Close()

	sender, err := session.Sender(globalmmcs.Video)
	if err != nil {
		return err
	}
	src := globalmmcs.NewVideoSource(globalmmcs.VideoConfig{})
	sent, err := sender.SendVideo(ctx, src, 150)
	if err != nil {
		return err
	}
	fmt.Printf("published %d video packets at ~600 Kbps\n", sent)

	// A gateway-style bulk sender: the Publisher publishes exactly what
	// it is given, unpaced — how a relay pumping many RTP streams would
	// publish.
	bulk, err := session.Publisher(globalmmcs.Audio)
	if err != nil {
		return err
	}
	bulkSrc := globalmmcs.NewAudioSource(globalmmcs.AudioConfig{SSRC: 0x42})
	for range 50 {
		pkt, err := bulkSrc.NextPacket()
		if err != nil {
			return err
		}
		if err := bulk.Publish(pkt); err != nil {
			return err
		}
	}
	if err := bulk.Close(); err != nil {
		return err
	}
	fmt.Println("bulk-published 50 more packets through the publisher")

	// Tally what the raw event tap saw.
	tallyCtx, cancelTally := context.WithTimeout(ctx, 2*time.Second)
	kinds := map[string]int{}
	for kinds["rtp"] < sent+50 {
		e, err := events.Recv(tallyCtx)
		if err != nil {
			break
		}
		kinds[e.Kind]++
	}
	cancelTally()
	fmt.Printf("raw session event tap saw %d rtp events\n", kinds["rtp"])

	// The SIP endpoint sends audio through its gateway port; the H.323
	// endpoint hears it on its own RTP socket.
	gwAudio, ok := sipCall.AudioAddr()
	if !ok {
		return fmt.Errorf("sip answer lacks audio")
	}
	gwAddr, err := net.ResolveUDPAddr("udp", gwAudio)
	if err != nil {
		return err
	}
	audioSrc := globalmmcs.NewAudioSource(globalmmcs.AudioConfig{})
	for range 25 {
		raw, err := audioSrc.NextPacket()
		if err != nil {
			return err
		}
		if _, err := sipAudio.WriteTo(raw, gwAddr); err != nil {
			return err
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := h323Audio.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		return err
	}
	buf := make([]byte, 2048)
	n, _, err := h323Audio.ReadFrom(buf)
	if err != nil {
		return fmt.Errorf("h323 endpoint heard nothing: %w", err)
	}
	fmt.Printf("H.323 endpoint received SIP endpoint's audio (%d bytes RTP) — cross-community media works\n", n)

	// Tidy teardown.
	if err := session.ReleaseFloor(ctx, globalmmcs.Video); err != nil {
		return err
	}
	if err := sipEP.Hangup(sipCall); err != nil {
		return err
	}
	if err := h323Call.Hangup(); err != nil {
		return err
	}
	if err := session.Refresh(ctx); err != nil {
		return err
	}
	fmt.Printf("members after hangups: %d\n", len(session.Participants()))
	fmt.Println("videoconference example complete")
	return nil
}
