// Command gmmcs-server runs a complete Global-MMCS node: broker, XGSP
// session and web servers, directory, SIP and H.323 gateways, RTSP
// streaming and IM services.
//
// Usage:
//
//	gmmcs-server -web 127.0.0.1:8070 -broker tcp://127.0.0.1:9040
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/globalmmcs/globalmmcs"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		webAddr   = flag.String("web", "127.0.0.1:8070", "XGSP web server HTTP address")
		brokerURL = flag.String("broker", "tcp://127.0.0.1:9040", "broker listen URL (tcp:// or udp://)")
		domain    = flag.String("domain", "mmcs.local", "SIP domain")
		batch     = flag.Int("max-batch-bytes", 0, "broker per-session write batch bound (0 = default 256KiB)")
		flush     = flag.Duration("flush-interval", 0, "broker batch linger once a session queue idles (0 = flush immediately)")
		noSIP     = flag.Bool("no-sip", false, "disable the SIP servers")
		noH323    = flag.Bool("no-h323", false, "disable the H.323 servers")
		noRTSP    = flag.Bool("no-rtsp", false, "disable the streaming server")
		noIM      = flag.Bool("no-im", false, "disable the IM service")

		drainTimeout = flag.Duration("drain-timeout", 5*time.Second, "graceful drain bound on SIGTERM/SIGINT: wait this long for broker clients to ack in-flight reliable traffic after GOAWAY (0 = stop immediately)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	opts := []globalmmcs.Option{
		globalmmcs.WithWebAddr(*webAddr),
		globalmmcs.WithBrokerListen(*brokerURL),
		globalmmcs.WithDomain(*domain),
		globalmmcs.WithBrokerBatching(*batch, *flush),
	}
	if *noSIP {
		opts = append(opts, globalmmcs.WithoutSIP())
	}
	if *noH323 {
		opts = append(opts, globalmmcs.WithoutH323())
	}
	if *noRTSP {
		opts = append(opts, globalmmcs.WithoutRTSP())
	}
	if *noIM {
		opts = append(opts, globalmmcs.WithoutIM())
	}

	srv, err := globalmmcs.Start(ctx, opts...)
	if err != nil {
		return err
	}
	defer srv.Stop()
	readyCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := srv.WaitReady(readyCtx); err != nil {
		return err
	}

	fmt.Printf("Global-MMCS node up\n")
	fmt.Printf("  web (SOAP):   %s/ws\n", srv.WebAddr())
	fmt.Printf("  broker:       %s\n", strings.Join(srv.Broker().Addrs(), " "))
	if addr := srv.SIPAddr(); addr != "" {
		fmt.Printf("  sip:          %s (domain %s)\n", addr, srv.SIPDomain())
	}
	if addr := srv.GatekeeperAddr(); addr != "" {
		fmt.Printf("  h323 ras:     %s\n", addr)
		fmt.Printf("  h323 signal:  %s\n", srv.H323GatewayAddr())
	}
	if addr := srv.RTSPAddr(); addr != "" {
		fmt.Printf("  rtsp:         %s\n", addr)
	}

	<-ctx.Done()
	if *drainTimeout > 0 {
		fmt.Printf("draining (timeout %s)\n", *drainTimeout)
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Broker().Drain(drainCtx); err != nil {
			fmt.Printf("drain: %v\n", err)
		}
	}
	fmt.Println("shutting down")
	return nil
}
