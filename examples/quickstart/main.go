// Quickstart: start a Global-MMCS node in-process, create a session, have
// two users join, exchange chat and a short burst of audio — using only
// the public globalmmcs SDK.
//
// Every subscription in the SDK is a Stream: chat rooms, presence
// watches and media subscriptions all deliver through the same typed
// handle, consumed with Recv (blocking, context-aware), All (a Go
// iterator) or Chan (select-based). Per-stream QoS — buffer depth and
// the full-buffer drop policy — is chosen with options at subscribe
// time instead of being baked into each feature.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"github.com/globalmmcs/globalmmcs"
)

func main() {
	if err := run(context.Background()); err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context) error {
	// One call brings up the whole middleware: broker, XGSP session and
	// web servers, SIP/H.323 gateways, RTSP, IM.
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
	fmt.Println("Global-MMCS node started; web service at", srv.WebAddr()+"/ws")

	alice, err := srv.Client(ctx, "alice")
	if err != nil {
		return err
	}
	defer alice.Close()
	bob, err := srv.Client(ctx, "bob")
	if err != nil {
		return err
	}
	defer bob.Close()

	// Alice creates an ad-hoc session; both join.
	session, err := alice.CreateSession(ctx, "quickstart-demo")
	if err != nil {
		return err
	}
	fmt.Printf("session %s (%s) created with media channels:\n", session.ID(), session.Name())
	for _, m := range session.Media() {
		fmt.Printf("  %-7s -> %s\n", m.Kind, m.Topic)
	}
	if err := session.Join(ctx, "alice-desktop"); err != nil {
		return err
	}
	bobSession, err := bob.Join(ctx, session.ID(), "bob-laptop")
	if err != nil {
		return err
	}

	// Chat: bob joins the room as a Stream of ChatMessage, alice greets,
	// bob receives with Recv — one call, bounded by the context.
	room, err := bobSession.Chat(ctx)
	if err != nil {
		return err
	}
	defer room.Close()
	if err := session.Send(ctx, "hi bob — testing the new middleware"); err != nil {
		return err
	}
	recvCtx, cancelRecv := context.WithTimeout(ctx, 5*time.Second)
	msg, err := room.Recv(recvCtx)
	cancelRecv()
	if err != nil {
		return fmt.Errorf("chat message never arrived: %w", err)
	}
	fmt.Printf("chat: <%s> %s\n", msg.From, msg.Body)

	// Media: alice streams one second of audio; bob receives and
	// measures, ranging over the stream with the All iterator. The
	// subscription keeps the default media QoS (drop-oldest, 256-deep) —
	// a slow consumer would lose the stalest packets, counted on the
	// stream's Drops and the node's metrics rather than silently.
	audioSub, err := bobSession.Subscribe(ctx, globalmmcs.Audio, globalmmcs.WithBuffer(256))
	if err != nil {
		return err
	}
	recv := globalmmcs.NewMediaReceiver(globalmmcs.Audio)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for p, err := range audioSub.All(ctx) {
			if err != nil {
				return
			}
			recv.Handle(p)
		}
	}()

	sender, err := session.Sender(globalmmcs.Audio)
	if err != nil {
		return err
	}
	if _, err := sender.SendAudio(ctx, globalmmcs.NewAudioSource(globalmmcs.AudioConfig{}), 50); err != nil {
		return err
	}
	time.Sleep(200 * time.Millisecond) // let the tail drain
	if err := audioSub.Close(); err != nil {
		return err
	}
	<-done

	stats := recv.Stats()
	fmt.Printf("media: bob received %d packets (%d bytes), mean delay %.2f ms, jitter %.2f ms, lost %d, stream drops %d\n",
		stats.Received, stats.Bytes, stats.MeanDelayMs, stats.JitterMs, stats.Lost, audioSub.Drops())
	fmt.Println("quickstart complete")
	return nil
}
