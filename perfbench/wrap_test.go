package main

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"math/rand"
	"net"
	"testing"

	"ganglia/internal/transport"
)

// serveOnce answers every connection with body, after reading a query
// line when readLine is set.
func serveOnce(t *testing.T, body []byte, readLine bool) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			if readLine {
				var b [1]byte
				for {
					if _, err := c.Read(b[:]); err != nil || b[0] == '\n' {
						break
					}
				}
			}
			_, _ = c.Write(body)
			c.Close()
		}
	}()
	return ln.Addr().String()
}

func TestCountNetPassesBytesAndCountsByKind(t *testing.T) {
	body := make([]byte, 300_000)
	rand.New(rand.NewSource(1)).Read(body)
	gmondAddr := serveOnce(t, body, false)
	gmetadAddr := serveOnce(t, body[:1000], true)
	streamAddr := serveOnce(t, body[:777], true)

	tr := newTracer()
	tr.on.Store(true)
	wire := &wireCounts{}
	n := &countNet{inner: &transport.TCPNetwork{}, node: "n", gmondAddrs: map[string]bool{gmondAddr: true},
		wire: wire, tr: tr, cap: newCaptures(true)}

	fetch := func(addr, line string) []byte {
		c, err := n.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if line != "" {
			if _, err := io.WriteString(c, line); err != nil {
				t.Fatal(err)
			}
		}
		got, err := io.ReadAll(c)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	if got := fetch(gmondAddr, ""); !bytes.Equal(got, body) {
		t.Fatalf("gmond body changed in transit: %d bytes, want %d", len(got), len(body))
	}
	if got := fetch(gmetadAddr, "/?filter=summary\n"); !bytes.Equal(got, body[:1000]) {
		t.Fatal("gmetad body changed in transit")
	}
	if got := fetch(streamAddr, "/?filter=stream-summary\n"); !bytes.Equal(got, body[:777]) {
		t.Fatal("stream body changed in transit")
	}
	if g, m, s := wire.gmond.Load(), wire.gmetad.Load(), wire.stream.Load(); g != 300_000 || m != 1000 || s != 777 {
		t.Errorf("counted gmond=%d gmetad=%d stream=%d, want 300000, 1000, 777", g, m, s)
	}
	if wire.total() != 301_777 {
		t.Errorf("total = %d", wire.total())
	}
	if !bytes.Equal(n.cap.lastOf(kindGmond), body) || !bytes.Equal(n.cap.lastOf(kindGmetad), body[:1000]) {
		t.Error("captured poll bodies differ from what was read")
	}
	if got := n.cap.streamLinks()["n<-"+streamAddr]; !bytes.Equal(got, body[:777]) {
		t.Error("captured stream bytes differ from what was read")
	}
	names := map[string]int{}
	for _, s := range tr.all() {
		names[s.Name]++
	}
	if names["transport.dial"] != 3 || names["transport.poll_conn.gmond"] != 1 || names["transport.poll_conn.gmetad"] != 1 {
		t.Errorf("spans = %v", names)
	}
}

func TestMemFSRoundTripAndCounts(t *testing.T) {
	m := newMemFS(nil)
	payload := bytes.Repeat([]byte("ganglia "), 5000)
	f, err := m.Create("ckpt/root.rrd.tmp")
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(payload); off += 777 {
		end := min(off+777, len(payload))
		if n, err := f.Write(payload[off:end]); err != nil || n != end-off {
			t.Fatalf("write: %d, %v", n, err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Rename("ckpt/root.rrd.tmp", "ckpt/root.rrd.gen-00000001"); err != nil {
		t.Fatal(err)
	}
	names, err := m.ReadDirNames("ckpt")
	if err != nil || len(names) != 1 || names[0] != "root.rrd.gen-00000001" {
		t.Fatalf("ReadDirNames = %v, %v", names, err)
	}
	r, err := m.Open("ckpt/root.rrd.gen-00000001")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	if !bytes.Equal(got, payload) {
		t.Fatal("file read back differs from what was written")
	}
	if m.written.Load() != int64(len(payload)) || m.read.Load() != int64(len(payload)) {
		t.Errorf("counted %d written, %d read, want %d each", m.written.Load(), m.read.Load(), len(payload))
	}
	if name, b := m.newest("ckpt/root.rrd"); name != "ckpt/root.rrd.gen-00000001" || !bytes.Equal(b, payload) {
		t.Errorf("newest = %q", name)
	}
	if _, err := m.Open("ckpt/root.rrd.tmp"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("open of a renamed file: %v", err)
	}
	if err := m.Remove("ckpt/root.rrd.gen-00000001"); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("ckpt/root.rrd.gen-00000001"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("second remove: %v", err)
	}
}
