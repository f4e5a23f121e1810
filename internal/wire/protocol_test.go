package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"math/big"
	"runtime"
	"strings"
	"testing"

	"sdb/internal/types"
)

// TestFrameRequestRoundTrip exercises every op through one framed conn.
func TestFrameRequestRoundTrip(t *testing.T) {
	c := NewConn(new(bytes.Buffer))
	reqs := []*Request{
		{Op: OpHello, Ver: ProtocolV2},
		{Op: OpPrepare, Ver: ProtocolV2, SQL: "SELECT a FROM t"},
		{Op: OpExecute, Ver: ProtocolV2, StmtID: 3, MaxRows: 128},
		{Op: OpFetch, Ver: ProtocolV2, StmtID: 1 << 40, MaxRows: 128},
		{Op: OpReset, Ver: ProtocolV2, StmtID: 3},
		{Op: OpClose, Ver: ProtocolV2, StmtID: 3},
		{Op: OpExecuteDirect, Ver: ProtocolV2, SQL: "SELECT 2", MaxRows: 7},
		{Op: OpExec, Ver: ProtocolV2, SQL: "INSERT INTO t VALUES (1)"},
	}
	for _, req := range reqs {
		if err := c.SendRequest(req); err != nil {
			t.Fatalf("send %v: %v", req.Op, err)
		}
	}
	for _, want := range reqs {
		got, err := c.ReadRequest()
		if err != nil {
			t.Fatalf("read %v: %v", want.Op, err)
		}
		if *got != *want {
			t.Errorf("round trip: got %+v, want %+v", got, want)
		}
	}
}

// TestFrameRowBatchRoundTrip checks a streamed response frame with rows
// and the end-of-stream marker, including share values.
func TestFrameRowBatchRoundTrip(t *testing.T) {
	rows := []types.Row{
		{types.NewInt(1), types.NewString("x"), types.NewShare(big.NewInt(123456789))},
		{types.NewInt(2), types.Null, types.NewShare(new(big.Int).Lsh(big.NewInt(7), 200))},
	}
	want := &Response{
		Ver:     ProtocolV2,
		StmtID:  9,
		Columns: []Column{{Name: "a", Kind: 1}, {Name: "b", Kind: 4}, {Name: "c", Kind: 6}},
		Rows:    FromRows(rows),
		EOS:     true,
	}
	var lb bytes.Buffer
	c := NewConn(&lb)
	if err := c.SendResponse(want); err != nil {
		t.Fatal(err)
	}
	// The row block is the codec's block form, byte for byte.
	block, _ := types.AppendRows(nil, rows)
	if !bytes.HasSuffix(lb.Bytes(), block) {
		t.Fatalf("frame does not end in the codec's row block:\n %x\n %x", lb.Bytes(), block)
	}
	got, err := c.ReadResponse()
	if err != nil {
		t.Fatal(err)
	}
	if got.Ver != want.Ver || got.StmtID != want.StmtID || !got.EOS || got.Err != "" || len(got.Columns) != 3 || got.Columns[2] != want.Columns[2] {
		t.Fatalf("header mismatch: %+v", got)
	}
	back := ToRows(got.Rows)
	for r := range rows {
		for c := range rows[r] {
			if !back[r][c].Equal(rows[r][c]) {
				t.Fatalf("row %d col %d: %v != %v", r, c, back[r][c], rows[r][c])
			}
		}
	}
}

// TestOpStrings pins the op code labels used in error messages.
func TestOpStrings(t *testing.T) {
	for op, want := range map[Op]string{
		OpExec: "Exec", OpHello: "Hello", OpPrepare: "Prepare",
		OpExecute: "Execute", OpFetch: "Fetch", OpClose: "Close", OpReset: "Reset",
		OpExecuteDirect: "ExecuteDirect",
		Op(99):          "Op(99)",
	} {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", op, got, want)
		}
	}
}

// headerOnly serves a frame header and fails the test if the reader asks
// for a single payload byte.
type headerOnly struct {
	t   *testing.T
	hdr []byte
}

func (h *headerOnly) Read(p []byte) (int, error) {
	if len(h.hdr) == 0 {
		h.t.Error("reader went past the header of a frame it must refuse")
		return 0, io.EOF
	}
	n := copy(p, h.hdr)
	h.hdr = h.hdr[n:]
	return n, nil
}

func (h *headerOnly) Write(p []byte) (int, error) { return len(p), nil }

// TestFrameCapExact: the cap counts payload bytes, is checked on the
// header, and is exact — a frame of exactly the cap passes, one byte more
// is ErrFrameTooLarge before any of its payload is read.
func TestFrameCapExact(t *testing.T) {
	const limit = 64 << 10
	var lb bytes.Buffer
	sender := NewConn(&lb)
	frame := func(payload int) []byte {
		lb.Reset()
		// ver + stmt id + max rows are one byte each, the SQL length three.
		if err := sender.SendRequest(&Request{Op: OpPrepare, SQL: strings.Repeat("x", payload-6)}); err != nil {
			t.Fatal(err)
		}
		raw := bytes.Clone(lb.Bytes())
		if got := int(binary.BigEndian.Uint32(raw)); got != payload || len(raw) != headerLen+payload {
			t.Fatalf("built a %d-byte payload (frame %d), want %d", got, len(raw), payload)
		}
		return raw
	}

	at := NewConnMaxFrame(bytes.NewBuffer(frame(limit)), limit)
	if req, err := at.ReadRequest(); err != nil || len(req.SQL) != limit-6 {
		t.Fatalf("frame of exactly the cap: %v", err)
	}

	over := frame(limit + 1)
	refused := NewConnMaxFrame(&headerOnly{t: t, hdr: over[:headerLen]}, limit)
	if _, err := refused.ReadRequest(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("cap + 1: got %v, want ErrFrameTooLarge", err)
	}
	// The same bytes read fine without a cap: the refusal is the limiter's.
	open := NewConn(bytes.NewBuffer(over))
	if req, err := open.ReadRequest(); err != nil || len(req.SQL) != limit-5 {
		t.Fatalf("uncapped read of the same frame: %v", err)
	}
}

// TestFrameCapResetsPerFrame runs a multi-frame exchange under a modest
// cap: it bounds each frame, not the session's cumulative volume.
func TestFrameCapResetsPerFrame(t *testing.T) {
	var lb bytes.Buffer
	sender := NewConn(&lb)
	payload := strings.Repeat("y", 24<<10)
	for i := 0; i < 20; i++ { // 20 × 24 KiB ≫ the 64 KiB per-frame cap
		if err := sender.SendRequest(&Request{Op: OpPrepare, Ver: ProtocolV2, SQL: payload}); err != nil {
			t.Fatal(err)
		}
	}
	limited := NewConnMaxFrame(&lb, 64<<10)
	for i := 0; i < 20; i++ {
		got, err := limited.ReadRequest()
		if err != nil {
			t.Fatalf("frame %d under limit rejected: %v", i, err)
		}
		if got.SQL != payload {
			t.Fatalf("frame %d corrupted", i)
		}
	}
}

// allocated reports the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestFrameLyingPrefix: an uncapped reader (the proxy's side: the SP is
// not trusted) given a header that promises 4 GiB and a peer that then
// delivers little or nothing allocates in proportion to what arrived, and
// reports the truncation.
func TestFrameLyingPrefix(t *testing.T) {
	for _, delivered := range []int{0, 100, 300 << 10} {
		raw := append([]byte{0xff, 0xff, 0xff, 0xff, kindResponse}, make([]byte, delivered)...)
		c := NewConn(bytes.NewBuffer(raw))
		var err error
		got := allocated(func() { _, err = c.ReadResponse() })
		if err == nil || !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
			t.Fatalf("%d bytes delivered of 4 GiB: err = %v, want a truncation", delivered, err)
		}
		// The buffer doubles: at most twice what arrived plus a chunk is
		// live, and the discarded smaller buffers sum to as much again.
		if limit := uint64(4*delivered + 4*readChunk); got > limit {
			t.Errorf("%d bytes delivered of a promised 4 GiB: allocated %d, want <= %d", delivered, got, limit)
		}
	}
}

// TestHelloRefusals: the frame that opens a connection must be this
// protocol's hello. A gob stream (what wire v0/v1 peers sent), a wrong
// magic, another version or a well-formed non-hello request are all
// ErrProtocol, decided on the header where the header already tells.
func TestHelloRefusals(t *testing.T) {
	var gobStream bytes.Buffer
	if err := gob.NewEncoder(&gobStream).Encode(&Request{Op: OpHello, Ver: 1}); err != nil {
		t.Fatal(err)
	}
	var prepare bytes.Buffer
	NewConn(&prepare).SendRequest(&Request{Op: OpPrepare, Ver: ProtocolV2, SQL: "SELECT 1"})
	for name, raw := range map[string][]byte{
		"gob peer":      gobStream.Bytes(),
		"wrong magic":   append([]byte{0, 0, 0, 5, byte(OpHello)}, "SDBX\x02"...),
		"wrong version": append([]byte{0, 0, 0, 5, byte(OpHello)}, "SDBW\x01"...),
		"long hello":    append([]byte{0, 0, 0, 6, byte(OpHello)}, "SDBW\x02\x00"...),
		"not a hello":   prepare.Bytes(),
	} {
		c := NewConn(bytes.NewBuffer(raw))
		if _, err := c.ReadHello(); !errors.Is(err, ErrProtocol) {
			t.Errorf("%s: ReadHello = %v, want ErrProtocol", name, err)
		}
	}
	var lb bytes.Buffer
	c := NewConn(&lb)
	if err := c.SendRequest(&Request{Op: OpHello, Ver: ProtocolV2}); err != nil {
		t.Fatal(err)
	}
	if want := append([]byte{0, 0, 0, 5, byte(OpHello)}, "SDBW\x02"...); !bytes.Equal(lb.Bytes(), want) {
		t.Fatalf("hello frame is % x, want % x", lb.Bytes(), want)
	}
	if req, err := c.ReadHello(); err != nil || req.Op != OpHello || req.Ver != ProtocolV2 {
		t.Fatalf("well-formed hello: %+v, %v", req, err)
	}
}

// TestFrameMalformedPayloads: payloads that do not parse to exactly one
// frame are ErrProtocol, whichever side reads them.
func TestFrameMalformedPayloads(t *testing.T) {
	frame := func(kind byte, payload ...byte) *Conn {
		raw := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
		return NewConn(bytes.NewBuffer(append(append(raw, kind), payload...)))
	}
	for name, c := range map[string]*Conn{
		"unknown request kind": frame(0x7f, 2, 0, 0, 0),
		"request cut short":    frame(byte(OpPrepare), 2, 0),
		"sql longer than left": frame(byte(OpPrepare), 2, 0, 0, 200, 'x'),
		"trailing bytes":       frame(byte(OpPrepare), 2, 0, 0, 1, 'x', 'y'),
	} {
		if _, err := c.ReadRequest(); !errors.Is(err, ErrProtocol) {
			t.Errorf("%s: ReadRequest = %v, want ErrProtocol", name, err)
		}
	}
	for name, c := range map[string]*Conn{
		"request kind":            frame(byte(OpFetch), 2, 0, 0, 0, 0, 0),
		"columns beyond payload":  frame(kindResponse, 2, 0, 0, 0, 0xff, 0xff, 0x03),
		"rows beyond payload":     frame(kindResponse, 2, 0, 0, 0, 0, 0xff, 0xff, 0x03),
		"unknown value kind":      frame(kindResponse, 2, 0, 0, 0, 0, 1, 1, 0x63),
		"share longer than frame": frame(kindResponse, 2, 0, 0, 0, 0, 1, 1, 6, 0xff, 0x7f, 1),
	} {
		if _, err := c.ReadResponse(); !errors.Is(err, ErrProtocol) {
			t.Errorf("%s: ReadResponse = %v, want ErrProtocol", name, err)
		}
	}
}
