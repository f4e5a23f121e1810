// Package wire defines the SQL-over-TCP protocol between the SDB proxy
// (machine MDO in the demo) and the service provider's engine (machine
// MSP). Requests carry rewritten SQL text; responses carry encrypted
// result tables.
//
// A frame is a five-byte header — the payload length as a big-endian
// uint32, then one kind byte (the Op of a request, kindResponse for a
// response) — followed by a hand-written payload whose values and rows
// are the bytes of the value codec in internal/types, the same ones run
// files, WAL records and snapshots hold. There is one framing and one
// version: a connection opens with OpHello carrying Magic and ProtocolV2,
// and a peer that opens with anything else is answered with one error
// frame and dropped. After the hello, OpPrepare registers a statement,
// OpExecute starts a cursor and returns the first row batch (a Response
// with Rows plus the EOS end-of-stream marker), OpFetch pulls subsequent
// batches, OpReset abandons a cursor, OpClose frees the statement;
// OpExecuteDirect fuses prepare + execute + first batch into one round
// trip with the server freeing the statement when the stream ends, and
// OpExec is the single-shot write path (whole result in one frame).
//
// In the stack (docs/architecture.md) this layer sits between the
// proxy's rewrite and the server's sessions: everything that crosses it
// is already rewritten SQL, shares and tokens — never plaintext
// sensitive data or key material. Neither side trusts the other's
// frames: lengths and counts are validated against the bytes that have
// actually arrived before anything is allocated from them. The byte
// layout and the session lifecycle are documented in docs/api.md.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"sdb/internal/engine"
	"sdb/internal/types"
)

// ProtocolV2 is the protocol version, carried by the hello and echoed on
// every frame. (Versions 0 and 1 were gob framings; nothing speaks them.)
const ProtocolV2 uint8 = 2

// Magic opens the payload of an OpHello frame, ahead of the version byte.
const Magic = "SDBW"

// Op selects the request type; it is the kind byte of a request frame.
type Op uint8

const (
	// OpExec is the single-shot: execute SQL, answer with the whole
	// result in one Response.
	OpExec Op = iota
	// OpHello opens a connection; the response echoes the version.
	OpHello
	// OpPrepare parses SQL into a session statement; the response carries
	// the statement id.
	OpPrepare
	// OpExecute starts (or restarts) a cursor on a prepared statement and
	// returns the first row batch.
	OpExecute
	// OpFetch returns the next row batch of the statement's open cursor.
	OpFetch
	// OpClose frees a prepared statement and its cursor.
	OpClose
	// OpReset closes a statement's open cursor (abandoning the stream)
	// while keeping the statement prepared for re-execution.
	OpReset
	// OpExecuteDirect fuses prepare + execute + first batch into one
	// frame. If the first batch carries EOS (or an error) the statement is
	// already gone server-side and the response's StmtID is zero; otherwise
	// the statement id addresses OpFetch, and the server auto-closes the
	// statement when the stream reaches EOS or fails.
	OpExecuteDirect
)

var opNames = [...]string{"Exec", "Hello", "Prepare", "Execute", "Fetch", "Close", "Reset", "ExecuteDirect"}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Request is one client frame.
type Request struct {
	SQL string
	Op  Op
	// Ver is the protocol version the client speaks.
	Ver uint8
	// StmtID addresses a prepared statement (OpExecute/OpFetch/OpClose).
	StmtID uint64
	// MaxRows caps the rows per returned batch; 0 means server default.
	MaxRows int
}

// Response is one server frame: a whole result (OpExec), the version
// (OpHello), a statement id (OpPrepare), or one row batch of an open
// cursor (OpExecute/OpFetch/OpExecuteDirect) whose last frame carries
// EOS. Rows read off a connection share per-batch backing storage
// (types.Decoder.Rows); they belong to the caller.
type Response struct {
	Err     string
	Columns []Column
	Rows    []types.Row
	// Ver is the server's protocol version.
	Ver uint8
	// StmtID echoes the addressed statement (OpPrepare assigns it).
	StmtID uint64
	// EOS marks the final batch of a cursor's stream.
	EOS bool
}

// Column is a result column descriptor, as the engine names it.
type Column = engine.ResultColumn

// FromColumns, FromRows and ToRows name the points where a result enters
// and leaves a Response. Results travel as the engine's own columns and
// rows — SendResponse encodes them straight into the frame, ReadResponse
// decodes them straight out of it — so all three are the identity; the
// benchmark's wire probe (bench/layers.go) is written against them.
func FromColumns(cols []engine.ResultColumn) []Column { return cols }
func FromRows(rows []types.Row) []types.Row           { return rows }
func ToRows(rows []types.Row) []types.Row             { return rows }

// ErrFrameTooLarge reports an incoming frame whose header announces a
// payload beyond the connection's cap. The payload has not been read, so
// the stream is mid-frame: the connection must be dropped.
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// ErrProtocol reports a frame that is not this protocol's: a connection
// that does not open with the hello, an unknown frame kind, or a payload
// that does not parse. The connection must be dropped.
var ErrProtocol = errors.New("wire: not SDB wire protocol v2")

const (
	headerLen         = 5
	kindResponse byte = 0x80
	flagEOS      byte = 1
	helloLen          = len(Magic) + 1
	// readChunk is the least a frame read grows its buffer by.
	readChunk = 64 << 10
	// maxRetain is the largest frame buffer a connection keeps between
	// frames, so one INSERT upload does not pin its size for the session.
	maxRetain = 1 << 20
)

// Conn frames requests/responses over a stream. Reads and writes are
// independent, but each direction carries one frame at a time.
type Conn struct {
	br       *bufio.Reader
	w        io.Writer
	maxFrame int
	hdr      [headerLen]byte
	rbuf     []byte // payload of the frame being read; reused
	wbuf     []byte // frame being written; reused
}

// NewConn wraps a stream with no frame-size limit.
func NewConn(rw io.ReadWriter) *Conn { return NewConnMaxFrame(rw, 0) }

// NewConnMaxFrame wraps a stream and caps the payload of each incoming
// frame at maxFrame bytes (0 = unlimited). The cap is exact and checked
// on the header, before a payload byte is read: a frame of maxFrame bytes
// passes, maxFrame + 1 is ErrFrameTooLarge. With or without a cap the
// reader never allocates from the length prefix alone — the buffer grows
// as bytes arrive, to at most twice what has been received plus one
// readChunk.
func NewConnMaxFrame(rw io.ReadWriter, maxFrame int) *Conn {
	return &Conn{br: bufio.NewReader(rw), w: rw, maxFrame: maxFrame}
}

// send fills in the header of the frame built in buf and writes it out
// in one Write.
func (c *Conn) send(buf []byte, err error) error {
	if err != nil {
		return fmt.Errorf("wire: encode frame: %w", err)
	}
	if uint64(len(buf)-headerLen) > math.MaxUint32 {
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(buf, uint32(len(buf)-headerLen))
	if c.wbuf = buf[:0]; cap(buf) > maxRetain {
		c.wbuf = nil
	}
	_, err = c.w.Write(buf)
	return err
}

// frame starts a frame of the given kind in the reused write buffer.
func (c *Conn) frame(kind byte) []byte {
	return append(c.wbuf[:0], 0, 0, 0, 0, kind)
}

// readFrame reads one frame and returns its kind and payload; the payload
// is valid until the next read. io.EOF at a frame boundary is returned
// verbatim (the peer hung up cleanly). When hello is set the header must
// be a hello's, so a foreign protocol's first bytes — which read as some
// length and kind — are refused without waiting for a payload that will
// never come.
func (c *Conn) readFrame(hello bool) (byte, []byte, error) {
	if _, err := io.ReadFull(c.br, c.hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("wire: truncated frame header: %w", err)
		}
		return 0, nil, err
	}
	n, kind := int(binary.BigEndian.Uint32(c.hdr[:])), c.hdr[4]
	if hello && (kind != byte(OpHello) || n != helloLen) {
		return 0, nil, fmt.Errorf("%w: connection did not open with a hello", ErrProtocol)
	}
	if c.maxFrame > 0 && n > c.maxFrame {
		return 0, nil, ErrFrameTooLarge
	}
	buf := c.rbuf[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			// Grow by what has arrived (at least one chunk), never by
			// what the prefix promises.
			grown := min(n, cap(buf)+max(cap(buf), readChunk))
			buf = append(make([]byte, 0, grown), buf...)
		}
		m, err := io.ReadFull(c.br, buf[len(buf):min(n, cap(buf))])
		if buf = buf[:len(buf)+m]; err != nil {
			return 0, nil, fmt.Errorf("wire: truncated frame (%d of %d payload bytes): %w", len(buf), n, err)
		}
	}
	if c.rbuf = buf; cap(buf) > maxRetain {
		c.rbuf = nil
	}
	return kind, buf, nil
}

// SendRequest writes one request.
func (c *Conn) SendRequest(req *Request) error {
	buf := c.frame(byte(req.Op))
	if req.Op == OpHello {
		return c.send(append(append(buf, Magic...), req.Ver), nil)
	}
	buf = append(buf, req.Ver)
	buf = binary.AppendUvarint(buf, req.StmtID)
	buf = binary.AppendUvarint(buf, uint64(max(req.MaxRows, 0)))
	return c.send(types.AppendString(buf, req.SQL), nil)
}

// ReadRequest reads one request.
func (c *Conn) ReadRequest() (*Request, error) { return c.readRequest(false) }

// ReadHello reads the request that must open a connection: anything but
// a well-formed hello of this version is ErrProtocol.
func (c *Conn) ReadHello() (*Request, error) { return c.readRequest(true) }

func (c *Conn) readRequest(hello bool) (*Request, error) {
	kind, p, err := c.readFrame(hello)
	if err != nil {
		return nil, err
	}
	req := &Request{Op: Op(kind)}
	switch {
	case int(kind) >= len(opNames):
		return nil, fmt.Errorf("%w: unknown request kind %#x", ErrProtocol, kind)
	case req.Op == OpHello:
		if len(p) != helloLen || string(p[:len(Magic)]) != Magic || p[len(Magic)] != ProtocolV2 {
			return nil, fmt.Errorf("%w: bad hello % x", ErrProtocol, p[:min(len(p), 2*helloLen)])
		}
		req.Ver = ProtocolV2
		return req, nil
	}
	d := types.Decoder{B: p}
	req.Ver = d.Byte()
	req.StmtID = d.Uvarint()
	req.MaxRows = int(min(d.Uvarint(), math.MaxInt32))
	req.SQL = d.Str()
	return req, finish(&d)
}

// SendResponse writes one response.
func (c *Conn) SendResponse(resp *Response) error {
	var flags byte
	if resp.EOS {
		flags |= flagEOS
	}
	buf := append(c.frame(kindResponse), resp.Ver, flags)
	buf = binary.AppendUvarint(buf, resp.StmtID)
	buf = types.AppendString(buf, resp.Err)
	buf = binary.AppendUvarint(buf, uint64(len(resp.Columns)))
	for _, col := range resp.Columns {
		buf = append(types.AppendString(buf, col.Name), byte(col.Kind))
	}
	return c.send(types.AppendRows(buf, resp.Rows))
}

// ReadResponse reads one response.
func (c *Conn) ReadResponse() (*Response, error) {
	kind, p, err := c.readFrame(false)
	if err != nil {
		return nil, err
	}
	if kind != kindResponse {
		return nil, fmt.Errorf("%w: unknown response kind %#x", ErrProtocol, kind)
	}
	d := types.Decoder{B: p}
	resp := &Response{Ver: d.Byte()}
	resp.EOS = d.Byte()&flagEOS != 0
	resp.StmtID = d.Uvarint()
	resp.Err = d.Str()
	if n := d.Count("column count"); n > 0 {
		resp.Columns = make([]Column, n)
		for i := range resp.Columns {
			resp.Columns[i] = Column{Name: d.Str(), Kind: types.Kind(d.Byte())}
		}
	}
	resp.Rows = d.Rows()
	return resp, finish(&d)
}

// finish gives a fully decoded payload its verdict: the decoder's first
// error (ErrShort is a truncated payload here — the frame is complete),
// or bytes left over after the last field.
func finish(d *types.Decoder) error {
	if d.Err != nil {
		return fmt.Errorf("%w: %v", ErrProtocol, d.Err)
	}
	if len(d.B) > 0 {
		return fmt.Errorf("%w: %d trailing payload bytes", ErrProtocol, len(d.B))
	}
	return nil
}
