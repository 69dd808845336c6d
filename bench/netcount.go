package main

import (
	"net"
	"sync/atomic"
)

// netCounters counts what crosses the server's side of the sockets. The
// server reads the uplink and writes the downlink.
type netCounters struct {
	readBytes, writeBytes atomic.Int64
	reads, writes         atomic.Int64
}

// netSnapshot is the counters' values at one moment (or a difference of two
// moments).
type netSnapshot struct{ readBytes, writeBytes, reads, writes int64 }

func (c *netCounters) snapshot() netSnapshot {
	return netSnapshot{c.readBytes.Load(), c.writeBytes.Load(), c.reads.Load(), c.writes.Load()}
}

func (s netSnapshot) minus(o netSnapshot) netSnapshot {
	return netSnapshot{s.readBytes - o.readBytes, s.writeBytes - o.writeBytes, s.reads - o.reads, s.writes - o.writes}
}

func (s *netSnapshot) add(o netSnapshot) {
	s.readBytes += o.readBytes
	s.writeBytes += o.writeBytes
	s.reads += o.reads
	s.writes += o.writes
}

// countingListener decorates a listener so every accepted connection counts
// its bytes and calls into c.
type countingListener struct {
	net.Listener
	c *netCounters
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: conn, c: l.c}, nil
}

type countingConn struct {
	net.Conn
	c *netCounters
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.readBytes.Add(int64(n))
	c.c.reads.Add(1)
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.writeBytes.Add(int64(n))
	c.c.writes.Add(1)
	return n, err
}
