package wire

import (
	"bytes"
	"errors"
	"io"
	"math/big"
	"net"
	"testing"

	"sdb/internal/engine"
	"sdb/internal/types"
)

func TestResultRoundTrip(t *testing.T) {
	res := &engine.Result{
		Columns: []engine.ResultColumn{{Name: "a", Kind: types.KindInt}, {Name: "e", Kind: types.KindShare}},
		Rows: []types.Row{
			{types.NewInt(1), types.NewShare(big.NewInt(999))},
			{types.Null, types.NewShare(new(big.Int))}, // zero share must survive
		},
	}
	c := NewConn(new(bytes.Buffer))
	if err := c.SendResponse(&Response{Columns: FromColumns(res.Columns), Rows: FromRows(res.Rows)}); err != nil {
		t.Fatal(err)
	}
	resp, err := c.ReadResponse()
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Columns) != 2 || resp.Columns[1] != res.Columns[1] {
		t.Fatalf("columns: %+v", resp.Columns)
	}
	got := ToRows(resp.Rows)
	for i := range res.Rows {
		for c := range res.Rows[i] {
			if !got[i][c].Equal(res.Rows[i][c]) {
				t.Errorf("cell %d/%d: %v vs %v", i, c, got[i][c], res.Rows[i][c])
			}
		}
	}
}

func TestConnFraming(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	client := NewConn(c1)
	server := NewConn(c2)

	done := make(chan error, 1)
	go func() {
		req, err := server.ReadRequest()
		if err != nil {
			done <- err
			return
		}
		if req.SQL != "SELECT 1" {
			t.Errorf("got %q", req.SQL)
		}
		done <- server.SendResponse(&Response{Err: "boom"})
	}()

	if err := client.SendRequest(&Request{Op: OpExecuteDirect, SQL: "SELECT 1"}); err != nil {
		t.Fatal(err)
	}
	resp, err := client.ReadResponse()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err != "boom" {
		t.Errorf("resp err = %q", resp.Err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestFrameRefusesNegativeShare: the wire is the third path of the one
// codec, and like run files and WAL records it refuses a negative share
// instead of sending its magnitude. The refused frame leaves nothing on
// the stream and the connection stays usable.
func TestFrameRefusesNegativeShare(t *testing.T) {
	var lb bytes.Buffer
	c := NewConn(&lb)
	bad := &Response{Rows: []types.Row{{types.NewInt(1), types.NewShare(big.NewInt(-3))}}}
	if err := c.SendResponse(bad); !errors.Is(err, types.ErrNegativeShare) {
		t.Fatalf("SendResponse with a negative share: %v, want ErrNegativeShare", err)
	}
	if lb.Len() != 0 {
		t.Fatalf("refused frame left %d bytes on the stream", lb.Len())
	}
	if err := c.SendResponse(&Response{Err: "next"}); err != nil {
		t.Fatal(err)
	}
	if resp, err := c.ReadResponse(); err != nil || resp.Err != "next" {
		t.Fatalf("frame after the refused one: %+v, %v", resp, err)
	}
}

// TestReadRequestEOF pins clean stream termination.
func TestReadRequestEOF(t *testing.T) {
	c := NewConn(new(bytes.Buffer))
	if _, err := c.ReadRequest(); err != io.EOF {
		t.Fatalf("got %v, want io.EOF", err)
	}
}
