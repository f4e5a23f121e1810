package spill

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/big"

	"sdb/internal/types"
)

// Writer and Reader are the stream framing of the value codec in
// internal/types (codec.go): run files, WAL records and snapshots are
// sequences of its varints, strings, values and rows with nothing in
// between, read back by whoever wrote them. The bytes are the ones wire
// frames carry; only the framing around them differs.

// bufSize is the writer's flush threshold and the reader's first window.
const bufSize = 16 << 10

// Writer appends encoded components to one buffer and hands it to the
// underlying writer whenever it passes bufSize, always at a component
// boundary.
type Writer struct {
	w   io.Writer
	buf []byte
	err error // sticky write error
}

// NewWriter wraps w in a buffered spill encoder.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Flush pushes buffered bytes to the underlying writer.
func (w *Writer) Flush() error {
	if w.err == nil && len(w.buf) > 0 {
		_, w.err = w.w.Write(w.buf)
		w.buf = w.buf[:0]
	}
	return w.err
}

// emit adopts the buffer an Append function returned. A failed encode
// leaves the buffer as it was, so the stream never carries half a row.
func (w *Writer) emit(buf []byte, err error) error {
	if err != nil {
		return fmt.Errorf("spill: %w", err)
	}
	if w.buf = buf; len(buf) >= bufSize {
		return w.Flush()
	}
	return w.err
}

// WriteUvarint writes one unsigned varint.
func (w *Writer) WriteUvarint(v uint64) error {
	return w.emit(binary.AppendUvarint(w.buf, v), nil)
}

// WriteVarint writes one signed (zigzag) varint.
func (w *Writer) WriteVarint(v int64) error {
	return w.emit(binary.AppendVarint(w.buf, v), nil)
}

// WriteString writes a length-prefixed byte string.
func (w *Writer) WriteString(s string) error {
	return w.emit(types.AppendString(w.buf, s), nil)
}

// WriteValue writes one typed value.
func (w *Writer) WriteValue(v types.Value) error {
	return w.emit(types.AppendValue(w.buf, v))
}

// WriteBig writes a length-prefixed non-negative big integer (nil writes
// the zero-length form, which reads back as zero; a negative one is an
// error). The WAL uses it for the per-row SIES row ids and helpers, which
// are bigs outside the Value domain.
func (w *Writer) WriteBig(v *big.Int) error {
	return w.emit(types.AppendBig(w.buf, v))
}

// WriteRow writes a column count and every value of the row.
func (w *Writer) WriteRow(row types.Row) error {
	return w.emit(types.AppendRow(w.buf, row))
}

// Reader decodes what Writer encoded. It keeps a window of undecoded
// bytes and runs a types.Decoder over it, reading more only when the
// decoder reports the window ended inside a component — so the window is
// never grown from a length prefix, only by bytes that actually arrived.
type Reader struct {
	r   io.Reader
	buf []byte // buf[off:] is the undecoded window
	off int
	err error         // sticky read error, io.EOF included
	d   types.Decoder // lives here, not on next's stack, where the indirect call would make it escape
}

// NewReader wraps r in a buffered spill decoder.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// more extends the window with one read. Once the source is exhausted it
// returns io.EOF verbatim at a component boundary (empty window) — how
// callers detect a clean end of stream — and a truncation error inside
// one.
func (r *Reader) more(what string) error {
	if r.err != nil {
		if r.err != io.EOF {
			return fmt.Errorf("spill: read %s: %w", what, r.err)
		}
		if r.off == len(r.buf) {
			return io.EOF
		}
		return fmt.Errorf("spill: truncated %s", what)
	}
	r.buf = r.buf[:copy(r.buf, r.buf[r.off:])]
	r.off = 0
	if len(r.buf) == cap(r.buf) {
		r.buf = append(make([]byte, 0, max(2*cap(r.buf), bufSize)), r.buf...)
	}
	for empty := 0; ; empty++ {
		n, err := r.r.Read(r.buf[len(r.buf):cap(r.buf)])
		r.buf = r.buf[:len(r.buf)+n]
		if err == nil && n == 0 && empty == 100 {
			err = io.ErrNoProgress
		}
		if r.err = err; n > 0 || err != nil {
			return nil // the decoder retries; a second shortfall reports r.err
		}
	}
}

// next decodes one component from the window, extending it while the
// decoder comes up short.
func next[T any](r *Reader, what string, dec func(*types.Decoder) T) (T, error) {
	for {
		r.d = types.Decoder{B: r.buf[r.off:]}
		v := dec(&r.d)
		if r.d.Err == nil {
			r.off = len(r.buf) - len(r.d.B)
			return v, nil
		}
		if r.d.Err != types.ErrShort {
			return v, fmt.Errorf("spill: %s: %w", what, r.d.Err)
		}
		if err := r.more(what); err != nil {
			return v, err
		}
	}
}

// ReadUvarint reads one unsigned varint. Like every Read method but
// ReadValue, it returns io.EOF verbatim when the stream ends before the
// component's first byte, so callers can detect a clean end of file.
func (r *Reader) ReadUvarint() (uint64, error) {
	return next(r, "varint", (*types.Decoder).Uvarint)
}

// ReadVarint reads one signed varint.
func (r *Reader) ReadVarint() (int64, error) {
	return next(r, "varint", (*types.Decoder).Varint)
}

// ReadString reads a length-prefixed byte string.
func (r *Reader) ReadString() (string, error) {
	return next(r, "string", (*types.Decoder).Str)
}

// ReadValue reads one typed value. A value never starts a record, so the
// end of the stream here is a truncation, not a boundary.
func (r *Reader) ReadValue() (types.Value, error) {
	v, err := next(r, "value", (*types.Decoder).Value)
	if err == io.EOF {
		err = fmt.Errorf("spill: truncated value")
	}
	return v, err
}

// ReadBig reads what WriteBig encoded.
func (r *Reader) ReadBig() (*big.Int, error) {
	return next(r, "big", (*types.Decoder).Big)
}

// ReadRow reads one row into its own allocation. A clean io.EOF before
// the column count means the stream is exhausted.
func (r *Reader) ReadRow() (types.Row, error) {
	return next(r, "row", (*types.Decoder).Row)
}
