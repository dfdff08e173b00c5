package main

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"time"
)

// The machines this benchmark runs on are shared: for seconds to minutes at
// a time every instruction runs slower, while the served path makes exactly
// the same system calls per message. So each measured round is followed by
// a speed probe, a fixed loop that spends its time the way the served path
// does, in loopback-socket system calls, and the time metrics are reported
// at a fixed reference speed of that probe. The probe is the benchmark's
// own code and no change to the repository moves it.

// refSpeed is the probe's speed, in round trips per second over both of its
// goroutines, that the time metrics are reported at: about what it measures
// on the 2-vCPU Intel Xeon machines the benchmark was sized on.
const refSpeed = 250_000

// probeBytes is the size of one probe round trip.
const probeBytes = 64

// speedProbe is one loopback TCP connection pair per connection of the
// driver. Each of its goroutines writes to one end of its pair and reads
// the bytes back from the other, so no goroutine ever waits for another.
type speedProbe struct {
	pairs [][2]net.Conn
}

func newSpeedProbe() (*speedProbe, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	p := &speedProbe{}
	for range conns {
		a, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			p.close()
			return nil, err
		}
		b, err := ln.Accept()
		if err != nil {
			a.Close()
			p.close()
			return nil, err
		}
		p.pairs = append(p.pairs, [2]net.Conn{a, b})
	}
	return p, nil
}

func (p *speedProbe) close() {
	for _, c := range p.pairs {
		c[0].Close()
		c[1].Close()
	}
}

// speed runs the probe for d and returns its round trips per second. It
// collects garbage first, so that no collection the measured traffic left
// running competes with it.
func (p *speedProbe) speed(d time.Duration) (float64, error) {
	runtime.GC()
	var wg sync.WaitGroup
	rates := make([]float64, len(p.pairs))
	errs := make([]error, len(p.pairs))
	for i, c := range p.pairs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rates[i], errs[i] = bounce(c[0], c[1], d)
		}()
	}
	wg.Wait()
	total := 0.0
	for i, r := range rates {
		if errs[i] != nil {
			return 0, fmt.Errorf("speed probe: %w", errs[i])
		}
		total += r
	}
	return total, nil
}

// bounce sends probeBytes from a to b and reads them back at b, repeatedly
// for d, and returns the round trips per second.
func bounce(a, b net.Conn, d time.Duration) (float64, error) {
	var buf [probeBytes]byte
	t0 := time.Now()
	end := t0.Add(d)
	n := 0
	for time.Now().Before(end) {
		for range 16 {
			if _, err := a.Write(buf[:]); err != nil {
				return 0, err
			}
			if _, err := io.ReadFull(b, buf[:]); err != nil {
				return 0, err
			}
		}
		n += 16
	}
	return float64(n) / time.Since(t0).Seconds(), nil
}
