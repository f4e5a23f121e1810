package server

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/big"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"sdb/internal/engine"
	"sdb/internal/proxy"
	"sdb/internal/secure"
	"sdb/internal/types"
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
	// Three-row engine batches: the eight-row answer spans three frames.
	srv := NewWithOptions(secret.N(), engine.Options{Parallelism: 1, ChunkSize: 3})
	f.Cleanup(srv.Close)
	cli, sp := net.Pipe()
	go srv.handle(sp, srv.newSession())
	rec := &recordingConn{Conn: cli}
	client := &Client{conn: rec, wc: wire.NewConn(rec)}
	if resp, err := client.roundTrip(&wire.Request{Op: wire.OpHello}); err != nil || resp.Err != "" {
		f.Fatalf("hello: %+v, %v", resp, err)
	}
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
	frames := 0
	for rest := answer; len(rest) >= 5; rest = rest[min(len(rest), 5+int(binary.BigEndian.Uint32(rest))):] {
		frames++
	}
	if frames != 3 {
		f.Fatalf("recorded answer spans %d frames, want 3", frames)
	}

	f.Add(answer)
	f.Add(answer[:len(answer)/2])
	f.Add([]byte{})
	// The first row's hidden row id (its last cell) three limbs wide, and
	// packing a SIES ciphertext at or above the 2^62 modulus.
	// Both must fail on the row-id column.
	wide := reframe(f, answer, func(rid *big.Int) *big.Int { return new(big.Int).Lsh(big.NewInt(0x5a5a5a5a), 140) })
	high := reframe(f, answer, func(rid *big.Int) *big.Int {
		nonce := new(big.Int).And(rid, new(big.Int).SetUint64(^uint64(0)))
		return new(big.Int).Or(new(big.Int).Lsh(big.NewInt(1<<62|0x1d2c3b4a5968), 64), nonce)
	})
	f.Add(wide)
	f.Add(high)
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
		if bytes.Equal(data, wide) || bytes.Equal(data, high) {
			if err == nil || !strings.Contains(err.Error(), `"_rid_t"`) {
				t.Fatalf("a forged row id: %v, want an error on the row-id column", err)
			}
			return
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

// reframe re-encodes a recorded multi-frame answer with the last cell of
// its first row replaced by forge of it.
func reframe(t testing.TB, answer []byte, forge func(*big.Int) *big.Int) []byte {
	t.Helper()
	var out bytes.Buffer
	in := wire.NewConn(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(answer), io.Discard})
	w := wire.NewConn(&out)
	for first := true; ; first = false {
		resp, err := in.ReadResponse()
		if err == io.EOF {
			return out.Bytes()
		}
		if err != nil {
			t.Fatal(err)
		}
		if first {
			if len(resp.Rows) == 0 {
				t.Fatal("the first frame carries no rows")
			}
			row := resp.Rows[0]
			row[len(row)-1] = types.NewShare(forge(row[len(row)-1].B))
		}
		if err := w.SendResponse(resp); err != nil {
			t.Fatal(err)
		}
	}
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
