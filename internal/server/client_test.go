package server

import (
	"context"
	"errors"
	"net"
	"slices"
	"testing"
	"time"

	"sdb/internal/engine"
	"sdb/internal/types"
	"sdb/internal/wire"
)

// scriptedPeer connects a Client to a fake server over net.Pipe that
// answers each request with the next response of the script. The channel
// yields the ops the peer read once the client hangs up or the script
// runs out.
func scriptedPeer(script []*wire.Response) (*Client, <-chan []wire.Op) {
	cli, srv := net.Pipe()
	seen := make(chan []wire.Op, 1)
	go func() {
		defer srv.Close()
		wc := wire.NewConn(srv)
		var ops []wire.Op
		defer func() { seen <- ops }()
		for _, resp := range script {
			req, err := wc.ReadRequest()
			if err != nil {
				return
			}
			ops = append(ops, req.Op)
			resp.Ver = wire.ProtocolV2
			if err := wc.SendResponse(resp); err != nil {
				return
			}
		}
	}()
	return &Client{conn: cli, wc: wire.NewConn(cli)}, seen
}

// TestFrameEmptyBeforeEOSRefused: a peer that sends rows, then a frame
// with no rows and no EOS, then more rows must not hand the DO a short
// answer. The client refuses the empty frame with wire.ErrProtocol and
// closes the cursor — run directly, through a prepared handle (the same
// request), and when the empty frame is the first one.
func TestFrameEmptyBeforeEOSRefused(t *testing.T) {
	ctx := context.Background()
	cols := []wire.Column{{Name: "a", Kind: types.KindInt}}
	rows := func(v int64) []types.Row { return []types.Row{{types.NewInt(v)}} }
	fused := func(c *Client) (engine.RowIterator, error) { return c.QueryDirect(ctx, `SELECT a FROM c`) }
	prepared := func(c *Client) (engine.RowIterator, error) {
		st, err := c.PrepareStream(`SELECT a FROM c`)
		if err != nil {
			return nil, err
		}
		return st.Query(ctx)
	}
	for _, tc := range []struct {
		name   string
		open   func(*Client) (engine.RowIterator, error)
		script []*wire.Response
		ops    []wire.Op
	}{
		{"fused", fused,
			[]*wire.Response{{StmtID: 5, Columns: cols, Rows: rows(1)}, {StmtID: 5}, {StmtID: 5, Rows: rows(2), EOS: true}},
			[]wire.Op{wire.OpExecuteDirect, wire.OpFetch, wire.OpClose}},
		{"prepared", prepared,
			[]*wire.Response{{StmtID: 5, Columns: cols, Rows: rows(1)}, {StmtID: 5}, {StmtID: 5, Rows: rows(2), EOS: true}},
			[]wire.Op{wire.OpExecuteDirect, wire.OpFetch, wire.OpClose}},
		{"fused, empty first frame", fused,
			[]*wire.Response{{StmtID: 5, Columns: cols}, {StmtID: 5, Rows: rows(1), EOS: true}},
			[]wire.Op{wire.OpExecuteDirect, wire.OpClose}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, seen := scriptedPeer(tc.script)
			it, err := tc.open(c)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for {
				batch, err := it.NextBatch()
				if err == nil {
					n += len(batch)
					continue
				}
				if !errors.Is(err, wire.ErrProtocol) {
					t.Fatalf("stream ended after %d rows with %v, want wire.ErrProtocol", n, err)
				}
				break
			}
			if _, err := it.NextBatch(); !errors.Is(err, wire.ErrProtocol) {
				t.Fatalf("the refusal is not sticky: %v", err)
			}
			it.Close()
			c.Close()
			select {
			case ops := <-seen:
				if !slices.Equal(ops, tc.ops) {
					t.Fatalf("peer saw %v, want %v", ops, tc.ops)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("peer never finished")
			}
		})
	}
}
