package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/big"
	"os"
	"sort"

	"sdb/internal/spill"
	"sdb/internal/storage"
	"sdb/internal/types"
)

// Log file layout
//
//	header:  "SDBWAL02" | u64 LE startLSN | u64 LE rotation generation |
//	         u64 LE catalog generation | u32 LE base record count
//	frame:   u32 LE payloadLen | u32 LE crc32(payload) | payload
//
// A frame's payload is one record in the spill codec (every value type the
// engine stores — including secure shares — round-trips through it). A log
// is started by a checkpoint at startLSN (a fresh store's first log is the
// checkpoint of an empty catalog at LSN 0), and its first frames — the
// base section, as many as the header counts — recreate the catalog as of
// startLSN. Every frame after them is one logged statement: the one at
// index i (1-based) past the base section carries LSN startLSN+i. LSNs are
// positional, never stored per record, so a log can never claim a sequence
// it does not have. A torn tail (partial frame, or a frame whose CRC does
// not match) ends the log at the last intact frame; recovery truncates the
// file there and the discarded suffix is exactly the uncommitted suffix of
// a crashed write.
const (
	logMagic  = "SDBWAL02"
	headerLen = len(logMagic) + 8 + 8 + 8 + 4
	frameLen  = 8 // payload length + CRC, both u32 LE

	// maxFrame caps a single record so a corrupt length prefix cannot make
	// recovery attempt a multi-gigabyte allocation. 1 GiB comfortably holds
	// the largest batched INSERT or column swap this engine can produce.
	maxFrame = 1 << 30
)

// Record kinds, mirroring the engine's write statements.
const (
	recCreate = iota + 1
	recInsert
	recUpdate
	recDrop
)

// Record is one decoded redo-log record.
type Record struct {
	Type  int
	Gens  storage.Generations
	Table string
	// Create
	Schema types.Schema
	// Insert
	Rows   []types.Row
	RowEnc []*big.Int
	Helper []*big.Int
	// Update: full swapped columns keyed by column index.
	Cols map[int][]types.Value
}

// EncodeRecord serializes a record payload (without framing). Exported for
// the fuzz round-trip target.
func EncodeRecord(r *Record) ([]byte, error) {
	var buf bytes.Buffer
	w := spill.NewWriter(&buf)
	if err := w.WriteUvarint(uint64(r.Type)); err != nil {
		return nil, err
	}
	if err := w.WriteUvarint(r.Gens.Rotation); err != nil {
		return nil, err
	}
	if err := w.WriteUvarint(r.Gens.Catalog); err != nil {
		return nil, err
	}
	if err := w.WriteString(r.Table); err != nil {
		return nil, err
	}
	switch r.Type {
	case recCreate:
		if err := writeSchema(w, r.Schema); err != nil {
			return nil, err
		}
	case recInsert:
		if len(r.RowEnc) != len(r.Rows) || len(r.Helper) != len(r.Rows) {
			return nil, fmt.Errorf("wal: insert record arity mismatch (%d rows, %d row ids, %d helpers)",
				len(r.Rows), len(r.RowEnc), len(r.Helper))
		}
		if err := w.WriteUvarint(uint64(len(r.Rows))); err != nil {
			return nil, err
		}
		for i, row := range r.Rows {
			if err := w.WriteBig(r.RowEnc[i]); err != nil {
				return nil, err
			}
			if err := w.WriteBig(r.Helper[i]); err != nil {
				return nil, err
			}
			if err := w.WriteRow(row); err != nil {
				return nil, err
			}
		}
	case recUpdate:
		// Deterministic column order so identical swaps encode identically.
		idxs := make([]int, 0, len(r.Cols))
		for idx := range r.Cols {
			idxs = append(idxs, idx)
		}
		sort.Ints(idxs)
		if err := w.WriteUvarint(uint64(len(idxs))); err != nil {
			return nil, err
		}
		for _, idx := range idxs {
			if err := w.WriteUvarint(uint64(idx)); err != nil {
				return nil, err
			}
			col := r.Cols[idx]
			if err := w.WriteUvarint(uint64(len(col))); err != nil {
				return nil, err
			}
			for _, v := range col {
				if err := w.WriteValue(v); err != nil {
					return nil, err
				}
			}
		}
	case recDrop:
		// Nothing beyond the common prefix.
	default:
		return nil, fmt.Errorf("wal: unknown record type %d", r.Type)
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeRecord parses what EncodeRecord produced. Exported for the fuzz
// round-trip target.
func DecodeRecord(payload []byte) (*Record, error) {
	rd := spill.NewReader(bytes.NewReader(payload))
	typ, err := rd.ReadUvarint()
	if err != nil {
		return nil, fmt.Errorf("wal: record type: %w", err)
	}
	rec := &Record{Type: int(typ)}
	if rec.Gens.Rotation, err = rd.ReadUvarint(); err != nil {
		return nil, fmt.Errorf("wal: record generations: %w", err)
	}
	if rec.Gens.Catalog, err = rd.ReadUvarint(); err != nil {
		return nil, fmt.Errorf("wal: record generations: %w", err)
	}
	if rec.Table, err = rd.ReadString(); err != nil {
		return nil, fmt.Errorf("wal: record table: %w", err)
	}
	switch rec.Type {
	case recCreate:
		if rec.Schema, err = readSchema(rd); err != nil {
			return nil, err
		}
	case recInsert:
		n, err := rd.ReadUvarint()
		if err != nil {
			return nil, fmt.Errorf("wal: insert row count: %w", err)
		}
		if n > maxFrame {
			return nil, fmt.Errorf("wal: implausible insert row count %d", n)
		}
		// Grow incrementally: a corrupt count must fail with a truncation
		// error on the first missing row, not a huge up-front allocation.
		for i := uint64(0); i < n; i++ {
			enc, err := rd.ReadBig()
			if err != nil {
				return nil, fmt.Errorf("wal: insert row id: %w", err)
			}
			helper, err := rd.ReadBig()
			if err != nil {
				return nil, fmt.Errorf("wal: insert helper: %w", err)
			}
			row, err := rd.ReadRow()
			if err != nil {
				return nil, fmt.Errorf("wal: insert row: %w", err)
			}
			rec.RowEnc = append(rec.RowEnc, enc)
			rec.Helper = append(rec.Helper, helper)
			rec.Rows = append(rec.Rows, row)
		}
	case recUpdate:
		n, err := rd.ReadUvarint()
		if err != nil {
			return nil, fmt.Errorf("wal: update column count: %w", err)
		}
		if n > maxFrame {
			return nil, fmt.Errorf("wal: implausible update column count %d", n)
		}
		// Small sizing hint only: a corrupt count must not pre-size the map.
		hint := n
		if hint > 64 {
			hint = 64
		}
		rec.Cols = make(map[int][]types.Value, hint)
		for i := uint64(0); i < n; i++ {
			idx, err := rd.ReadUvarint()
			if err != nil {
				return nil, fmt.Errorf("wal: update column index: %w", err)
			}
			rows, err := rd.ReadUvarint()
			if err != nil {
				return nil, fmt.Errorf("wal: update column length: %w", err)
			}
			if rows > maxFrame {
				return nil, fmt.Errorf("wal: implausible update column length %d", rows)
			}
			var col []types.Value
			for j := uint64(0); j < rows; j++ {
				v, err := rd.ReadValue()
				if err != nil {
					return nil, fmt.Errorf("wal: update value: %w", err)
				}
				col = append(col, v)
			}
			rec.Cols[int(idx)] = col
		}
	case recDrop:
	default:
		return nil, fmt.Errorf("wal: unknown record type %d", rec.Type)
	}
	return rec, nil
}

func writeSchema(w *spill.Writer, s types.Schema) error {
	if err := w.WriteUvarint(uint64(s.Len())); err != nil {
		return err
	}
	for _, c := range s.Columns {
		if err := w.WriteString(c.Name); err != nil {
			return err
		}
		if err := w.WriteUvarint(uint64(c.Type.Kind)); err != nil {
			return err
		}
		if err := w.WriteUvarint(uint64(c.Type.Scale)); err != nil {
			return err
		}
		sens := uint64(0)
		if c.Type.Sensitive {
			sens = 1
		}
		if err := w.WriteUvarint(sens); err != nil {
			return err
		}
	}
	return nil
}

func readSchema(rd *spill.Reader) (types.Schema, error) {
	n, err := rd.ReadUvarint()
	if err != nil {
		return types.Schema{}, fmt.Errorf("wal: schema column count: %w", err)
	}
	if n > maxFrame {
		return types.Schema{}, fmt.Errorf("wal: implausible schema column count %d", n)
	}
	var cols []types.Column
	for i := uint64(0); i < n; i++ {
		var c types.Column
		if c.Name, err = rd.ReadString(); err != nil {
			return types.Schema{}, fmt.Errorf("wal: schema column name: %w", err)
		}
		kind, err := rd.ReadUvarint()
		if err != nil {
			return types.Schema{}, fmt.Errorf("wal: schema column kind: %w", err)
		}
		c.Type.Kind = types.Kind(kind)
		scale, err := rd.ReadUvarint()
		if err != nil {
			return types.Schema{}, fmt.Errorf("wal: schema column scale: %w", err)
		}
		c.Type.Scale = int(scale)
		sens, err := rd.ReadUvarint()
		if err != nil {
			return types.Schema{}, fmt.Errorf("wal: schema column sensitivity: %w", err)
		}
		c.Type.Sensitive = sens != 0
		cols = append(cols, c)
	}
	// NewSchema re-validates (unique names, sensitive ⇒ numeric), so a
	// corrupted-but-CRC-valid record can still not plant an invalid schema.
	return types.NewSchema(cols)
}

// frame wraps a payload in the on-disk frame: length, CRC, payload, in one
// contiguous buffer so the append is a single write syscall.
func frame(payload []byte) []byte {
	buf := make([]byte, frameLen+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[frameLen:], payload)
	return buf
}

// logHeader is the fixed start of a log file: the LSN and generations of
// the checkpoint that started it, and the length of its base section.
type logHeader struct {
	startLSN uint64
	gens     storage.Generations
	base     uint32
}

func (h logHeader) encode() []byte {
	buf := make([]byte, headerLen)
	copy(buf, logMagic)
	le := binary.LittleEndian
	le.PutUint64(buf[8:], h.startLSN)
	le.PutUint64(buf[16:], h.gens.Rotation)
	le.PutUint64(buf[24:], h.gens.Catalog)
	le.PutUint32(buf[32:], h.base)
	return buf
}

// readHeader reads the header at the start of r, the log at path. Logs
// are created whole (temp file + rename), so a short or foreign header is
// an error, never a crash artifact. A log in another format — an earlier
// version's included — is refused with the magic it starts with; it is
// neither read nor migrated.
func readHeader(r io.Reader, path string) (logHeader, error) {
	buf := make([]byte, headerLen)
	n, err := io.ReadFull(r, buf)
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return logHeader{}, err
	}
	if magic := buf[:min(n, len(logMagic))]; string(magic) != logMagic {
		return logHeader{}, fmt.Errorf("wal: %s: log format %q is not %q; this store does not read or migrate it", path, magic, logMagic)
	}
	if n < headerLen {
		return logHeader{}, fmt.Errorf("wal: %s: short log header", path)
	}
	le := binary.LittleEndian
	return logHeader{
		startLSN: le.Uint64(buf[8:]),
		gens:     storage.Generations{Rotation: le.Uint64(buf[16:]), Catalog: le.Uint64(buf[24:])},
		base:     le.Uint32(buf[32:]),
	}, nil
}

// scannedLog is what scanLog learned about one log file.
type scannedLog struct {
	logHeader
	// validLen is the offset after the last intact frame; anything past it
	// is a torn tail to truncate.
	validLen int64
	size     int64
}

// scanLog streams the log at path, calling fn with every intact record in
// order and the file offset just past its frame. A torn or CRC-mismatching
// tail is not an error — the scan stops at the last intact frame and
// reports validLen < size. An error from fn, a read error, or a bad header
// ends the scan with that error.
func scanLog(path string, fn func(rec *Record, end int64) error) (*scannedLog, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	sl := &scannedLog{size: fi.Size()}
	r := bufio.NewReaderSize(f, 64<<10)
	if sl.logHeader, err = readHeader(r, path); err != nil {
		return nil, err
	}
	off := int64(headerLen)
	var fh [frameLen]byte
	for {
		// Bytes the file holds must read; only their absence is a tear.
		if off+frameLen > sl.size {
			break // clean EOF or torn frame header
		}
		if _, err := io.ReadFull(r, fh[:]); err != nil {
			return nil, err
		}
		plen := int64(binary.LittleEndian.Uint32(fh[0:4]))
		if plen > maxFrame || off+frameLen+plen > sl.size {
			break // torn payload (or garbage length)
		}
		payload := make([]byte, plen)
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil, err
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(fh[4:8]) {
			break // corrupt record: discard it and everything after
		}
		rec, err := DecodeRecord(payload)
		if err != nil {
			// CRC matched but the payload does not parse — the writer never
			// produces this, so treat it like a torn tail rather than
			// replaying garbage.
			break
		}
		off += frameLen + plen
		if err := fn(rec, off); err != nil {
			return nil, err
		}
	}
	sl.validLen = off
	return sl, nil
}
