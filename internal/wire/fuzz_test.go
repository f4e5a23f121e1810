package wire

import (
	"bytes"
	"math/big"
	"reflect"
	"testing"

	"sdb/internal/types"
)

// FuzzFrameDecode feeds arbitrary bytes to both frame readers — the
// server's (ReadHello, ReadRequest) and, because the SP is not trusted
// either, the proxy's (ReadResponse). Each must end in an error or in a
// well-formed frame (one that re-encodes and decodes to itself), never in
// a panic, and must allocate in proportion to the bytes supplied — not to
// what a length prefix or a count inside them claims.
func FuzzFrameDecode(f *testing.F) {
	var lb bytes.Buffer
	c := NewConn(&lb)
	c.SendRequest(&Request{Op: OpHello, Ver: ProtocolV2})
	f.Add(bytes.Clone(lb.Bytes()))
	lb.Reset()
	c.SendRequest(&Request{Op: OpExecuteDirect, Ver: ProtocolV2, StmtID: 7, MaxRows: 100, SQL: "SELECT a FROM t"})
	f.Add(bytes.Clone(lb.Bytes()))
	lb.Reset()
	c.SendResponse(&Response{Ver: ProtocolV2, StmtID: 7, EOS: true, Err: "e",
		Columns: []Column{{Name: "a", Kind: 1}, {Name: "s", Kind: 6}},
		Rows: []types.Row{
			{types.NewInt(-5), types.NewShare(new(big.Int).Lsh(big.NewInt(1), 300))},
			{types.NewString("str"), types.Null},
			{},
		}})
	f.Add(bytes.Clone(lb.Bytes()))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, kindResponse, 2, 0})
	f.Add([]byte{0, 0, 0, 8, kindResponse, 2, 0, 0, 0, 0, 0xff, 0xff, 0x7f})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		conn := func() *Conn { return NewConn(bytes.NewBuffer(bytes.Clone(data))) }
		var req, hello *Request
		var resp *Response
		var reqErr, respErr error
		got := allocated(func() {
			hello, _ = conn().ReadHello()
			req, reqErr = conn().ReadRequest()
			resp, respErr = conn().ReadResponse()
		})
		// A one-byte NULL decodes to a 48-byte Value and a one-byte empty
		// row to a 24-byte slice header, so the factor is not 1; the
		// constant covers three Conns with their bufio readers.
		if limit := uint64(3*64*len(data) + 256<<10); got > limit {
			t.Fatalf("%d input bytes drove %d bytes of allocation (limit %d)", len(data), got, limit)
		}
		if hello != nil && (hello.Op != OpHello || hello.Ver != ProtocolV2) {
			t.Fatalf("ReadHello accepted %+v", hello)
		}
		var lb bytes.Buffer
		again := NewConn(&lb)
		if reqErr == nil {
			if err := again.SendRequest(req); err != nil {
				t.Fatalf("decoded request %+v does not re-encode: %v", req, err)
			}
			if back, err := again.ReadRequest(); err != nil || *back != *req {
				t.Fatalf("request %+v re-read as %+v, %v", req, back, err)
			}
		}
		if respErr == nil {
			if err := again.SendResponse(resp); err != nil {
				t.Fatalf("decoded response does not re-encode: %v", err)
			}
			back, err := again.ReadResponse()
			if err != nil || !reflect.DeepEqual(back, resp) {
				t.Fatalf("response %+v re-read as %+v, %v", resp, back, err)
			}
		}
	})
}
