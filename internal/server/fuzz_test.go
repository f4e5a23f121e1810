package server

import (
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"testing"
	"time"

	"sdb/internal/engine"
	"sdb/internal/proxy"
	"sdb/internal/secure"
	"sdb/internal/wire"
)

// recordingConn keeps a copy of every byte the client reads.
type recordingConn struct {
	net.Conn
	rec bytes.Buffer
}

func (c *recordingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.rec.Write(p[:n])
	return n, err
}

// fuzzCursorQuery's answer carries every kind of cell the DO decrypts: the
// hidden row id, a row-keyed share and a flat-keyed SUM.
const fuzzCursorQuery = `SELECT t.id, t.v, s.total FROM t, (SELECT SUM(v) AS total FROM t) s`

// FuzzDecryptingCursor feeds mutated response frames to a live decrypting
// cursor: a proxy over a Client whose net.Pipe peer answers each request
// with the next frame of the fuzzer's bytes, seeded with the recorded
// multi-frame answer to fuzzCursorQuery. The unmutated answer must decrypt
// to the true rows; every input must end in the end of the stream or an
// error — never a panic or a hang (the pipe carries a deadline) — and
// allocate in proportion to the bytes supplied, as wire.FuzzFrameDecode
// requires of the frame reader alone.
func FuzzDecryptingCursor(f *testing.F) {
	secret, err := secure.Setup(256, 40, 40)
	if err != nil {
		f.Fatal(err)
	}
	srv := NewWithOptions(secret.N(), engine.Options{Parallelism: 1})
	f.Cleanup(srv.Close)
	cli, sp := net.Pipe()
	go srv.handle(sp, srv.newSession())
	rec := &recordingConn{Conn: cli}
	client := &Client{conn: rec, wc: wire.NewConn(rec)}
	if resp, err := client.roundTrip(&wire.Request{Op: wire.OpHello}); err != nil || resp.Err != "" {
		f.Fatalf("hello: %+v, %v", resp, err)
	}
	// Three rows a frame: the eight-row answer spans three frames.
	client.SetBatchRows(3)
	p, err := proxy.NewWithOptions(secret, client, proxy.Options{Parallelism: 1})
	if err != nil {
		f.Fatal(err)
	}
	for _, sql := range []string{
		`CREATE TABLE t (id INT, v INT SENSITIVE)`,
		`INSERT INTO t VALUES (1, 10), (2, -20), (3, 30), (4, 0), (5, 50), (6, -60), (7, 70), (8, 1)`,
	} {
		if _, err := p.Exec(sql); err != nil {
			f.Fatal(err)
		}
	}
	rec.rec.Reset()
	want, err := p.Exec(fuzzCursorQuery)
	if err != nil {
		f.Fatal(err)
	}
	if len(want.Rows) != 8 || want.Rows[1][1].I != -20 || want.Rows[1][2].I != 81 {
		f.Fatalf("recorded answer decrypts to %v", want.Rows)
	}
	answer := bytes.Clone(rec.rec.Bytes())
	client.Close()

	f.Add(answer)
	f.Add(answer[:len(answer)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		cli, peer := net.Pipe()
		cli.SetDeadline(time.Now().Add(5 * time.Second))
		done := make(chan struct{})
		go func() { // the SP: each request is answered with the next frame of data
			defer close(done)
			defer peer.Close()
			wc := wire.NewConn(peer)
			for rest := data; len(rest) > 0; {
				if _, err := wc.ReadRequest(); err != nil {
					return
				}
				n := len(rest)
				if n >= 5 {
					n = min(n, 5+int(binary.BigEndian.Uint32(rest)))
				}
				if _, err := peer.Write(rest[:n]); err != nil {
					return
				}
				rest = rest[n:]
			}
		}()
		client.mu.Lock()
		client.conn, client.wc = cli, wire.NewConn(cli)
		client.mu.Unlock()

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := p.Exec(fuzzCursorQuery)
		runtime.ReadMemStats(&after)
		client.Close()
		<-done

		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1024*len(data)+1<<20); got > limit {
			t.Fatalf("%d input bytes drove %d bytes of allocation (limit %d)", len(data), got, limit)
		}
		if !bytes.Equal(data, answer) {
			return
		}
		if err != nil {
			t.Fatalf("the recorded answer failed: %v", err)
		}
		requireRows(t, res, want)
	})
}

// requireRows compares two decrypted results cell by cell, order included.
func requireRows(t *testing.T, got, want *proxy.Result) {
	t.Helper()
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%d rows, want %d", len(got.Rows), len(want.Rows))
	}
	for r := range want.Rows {
		for c := range want.Rows[r] {
			if !got.Rows[r][c].Equal(want.Rows[r][c]) {
				t.Fatalf("row %d col %d: %v, want %v", r, c, got.Rows[r][c], want.Rows[r][c])
			}
		}
	}
}
