package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/events"
	"repro/internal/gen/media"
	"repro/internal/orb"
	"repro/internal/transport"
)

// The server role is the same binary re-executed by the driver, so client
// and server are always the same build in two OS processes. It talks to the
// driver over its standard streams: one JSON hello line once it serves, then
// one JSON line per "snap" or "cpu" command, until "quit" or end of input — a
// driver that dies takes its server with it.

// serverHello is what a client needs to reach the server process.
type serverHello struct {
	Ref  string // the Media::Session servant
	Chan string // the Playback channel, on event workloads
	Echo string // a listener that sends every frame back, for the bare-transport round trip
}

// procSnap is one process's resource counters at an instant.
type procSnap struct {
	CPUus    int64 // user + system time
	MaxRSSKB int64
	Mallocs  uint64
}

// cpuSample is one process's CPU time at an instant of its own clock. It is
// cheap enough to take at every slice boundary; takeProcSnap stops the world
// for the allocation count and is for window edges only.
type cpuSample struct {
	At    int64 // UnixNano
	CPUus int64 // user + system time
}

func takeCPUSample() (cpuSample, syscall.Rusage) {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	us := func(tv syscall.Timeval) int64 { return int64(tv.Sec)*1e6 + int64(tv.Usec) }
	return cpuSample{At: time.Now().UnixNano(), CPUus: us(ru.Utime) + us(ru.Stime)}, ru
}

func takeProcSnap() procSnap {
	c, ru := takeCPUSample()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{CPUus: c.CPUus, MaxRSSKB: int64(ru.Maxrss), Mallocs: ms.Mallocs}
}

// serverSnap is everything the driver reads from the server process.
type serverSnap struct {
	Proc           procSnap
	Served         [numOps]uint64
	CfgSum, PreSum uint64
	Requests       uint64 // orb.Stats.RequestsServed: what the ORB itself counted
	Shed, Expired  uint64
	Chan           events.Stats
	Trace          traceCounts
}

var registerValues sync.Once

func serverMain(args []string) int {
	fs := flag.NewFlagSet("orbload -role=server", flag.ContinueOnError)
	name := fs.String("workload", "", "workload whose server options to serve with")
	traced := fs.Bool("traced", false, "install the tracing wrappers")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := serve(*name, *traced, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "orbload server:", err)
		return 1
	}
	return 0
}

func serve(name string, traced bool, in io.Reader, out io.Writer) error {
	runtime.GOMAXPROCS(procs())
	wl, err := findWorkload(name)
	if err != nil {
		return err
	}
	registerValues.Do(media.RegisterMediaValues)
	opts := wl.server
	base := protocolOf(opts)
	var tr *tracer
	if traced {
		tr = newTracer()
		opts = tr.wrap(opts)
	}
	o := orb.New(opts)
	if err := o.Start(); err != nil {
		return err
	}
	defer o.Shutdown()
	if traced {
		o.AddServerInterceptor(tr.serverInterceptor)
	}
	sv := newSession()
	var impl media.HdSession = sv
	if traced {
		impl = &tracedSession{in: sv, t: tr}
	}
	ref, err := o.Export(impl, media.NewHdSessionTable(impl))
	if err != nil {
		return err
	}
	hello := serverHello{Ref: ref.String()}
	var ch *orb.Channel
	if wl.subscribers > 0 {
		if ch, err = o.CreateChannel(channelName, orb.ChannelOptions{}); err != nil {
			return err
		}
		defer ch.Close()
		hello.Chan = ch.Ref()
	}
	echo, err := transport.NewTCP(base).Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer echo.Close()
	go serveEcho(echo)
	hello.Echo = echo.Addr()

	enc := json.NewEncoder(out)
	if err := enc.Encode(hello); err != nil {
		return err
	}
	cmds := bufio.NewScanner(in)
	for cmds.Scan() {
		switch cmds.Text() {
		case "snap":
			s := serverSnap{Proc: takeProcSnap(), CfgSum: sv.cfgSum.Load(), PreSum: sv.preSum.Load()}
			for i := range s.Served {
				s.Served[i] = sv.served[i].Load()
			}
			s.Requests = o.Stats().RequestsServed
			adm := o.ORBStats()
			s.Shed, s.Expired = adm.Shed, adm.Expired
			if ch != nil {
				s.Chan = ch.Stats()
			}
			s.Trace = tr.counts()
			err = enc.Encode(s)
		case "cpu":
			c, _ := takeCPUSample()
			err = enc.Encode(c)
		case "quit":
			return nil
		default:
			err = fmt.Errorf("unknown command %q", cmds.Text())
		}
		if err != nil {
			return err
		}
	}
	return cmds.Err()
}
