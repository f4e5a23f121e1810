package spill

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"math/big"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/iotest"

	"sdb/internal/types"
)

func TestValueRoundTrip(t *testing.T) {
	big1, _ := new(big.Int).SetString(strings.Repeat("f7", 64), 16)
	vals := []types.Value{
		types.Null,
		types.NewInt(0),
		types.NewInt(-1),
		types.NewInt(1<<62 + 12345),
		types.NewInt(-(1<<62 + 12345)),
		types.NewDecimal(-99999),
		types.NewDate(19876),
		types.NewBool(true),
		types.NewBool(false),
		types.NewString(""),
		types.NewString("plain"),
		types.NewString("unicode ∅ δοκιμή\x00binary"),
		types.NewShare(new(big.Int)),
		types.NewShare(big.NewInt(7)),
		types.NewShare(big1),
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, v := range vals {
		if err := w.WriteValue(v); err != nil {
			t.Fatalf("encode %v: %v", v, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	for _, want := range vals {
		got, err := r.ReadValue()
		if err != nil {
			t.Fatalf("decode %v: %v", want, err)
		}
		if !got.Equal(want) {
			t.Fatalf("round trip: got %v (%s), want %v (%s)", got, got.K, want, want.K)
		}
	}
}

func TestRowRoundTripAndEOF(t *testing.T) {
	rows := []types.Row{
		{},
		{types.Null, types.NewInt(42)},
		{types.NewString("a"), types.NewString("b"), types.NewShare(big.NewInt(9))},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, row := range rows {
		if err := w.WriteRow(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	for _, want := range rows {
		got, err := r.ReadRow()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("row width %d, want %d", len(got), len(want))
		}
		for c := range want {
			if !got[c].Equal(want[c]) {
				t.Fatalf("col %d: %v != %v", c, got[c], want[c])
			}
		}
	}
	if _, err := r.ReadRow(); err != io.EOF {
		t.Fatalf("expected io.EOF after last row, got %v", err)
	}
}

func TestTruncatedStreamSurfacesError(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteRow(types.Row{types.NewString("0123456789")}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-4]
	if _, err := NewReader(bytes.NewReader(cut)).ReadRow(); err == nil || err == io.EOF {
		t.Fatalf("truncated row decoded without error (err=%v)", err)
	}
}

// TestCodecGoldenRunFile pins the bytes of a run file: the stream form of
// the shared codec must stay what the pre-PR-15 Writer produced (this hex
// was printed by it), because spill files, WAL records and snapshots
// written before are read back after.
func TestCodecGoldenRunFile(t *testing.T) {
	const golden = "058080808080400900015302a41303c8b6020502040668c3a96c6c6f0600060006280beef0" +
		"00000000000000000000000000000000000000000000000000000000000000000000000000" +
		"036b6579ac02000401234567000400"
	share := types.NewShare(new(big.Int).Lsh(big.NewInt(0xbeef), 300))
	row := types.Row{types.Null, types.NewInt(-42), types.NewDecimal(1234), types.NewDate(19876), types.NewBool(true),
		types.NewString("héllo"), types.NewShare(new(big.Int)), types.NewShare(nil), share}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteVarint(-3)
	w.WriteVarint(1 << 40)
	w.WriteRow(row)
	w.WriteString("key")
	w.WriteUvarint(300)
	w.WriteRow(types.Row{})
	w.WriteBig(big.NewInt(0x1234567))
	w.WriteBig(nil)
	w.WriteValue(types.NewString(""))
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(buf.Bytes()); got != golden {
		t.Fatalf("run-file bytes changed:\n got %s\nwant %s", got, golden)
	}

	// And the golden bytes read back, one byte per Read, so every
	// component straddles a window refill.
	raw, _ := hex.DecodeString(golden)
	r := NewReader(iotest.OneByteReader(bytes.NewReader(raw)))
	if a, err := r.ReadVarint(); a != -3 || err != nil {
		t.Fatalf("tag a = %d, %v", a, err)
	}
	if b, err := r.ReadVarint(); b != 1<<40 || err != nil {
		t.Fatalf("tag b = %d, %v", b, err)
	}
	got, err := r.ReadRow()
	if err != nil || len(got) != len(row) {
		t.Fatalf("row: %v, %v", got, err)
	}
	for c := range row {
		want := row[c]
		if want.K == types.KindShare && want.B == nil {
			want.B = new(big.Int) // nil share reads back as zero
		}
		if !got[c].Equal(want) {
			t.Fatalf("col %d: %v != %v", c, got[c], want)
		}
	}
	if s, err := r.ReadString(); s != "key" || err != nil {
		t.Fatalf("string = %q, %v", s, err)
	}
	if u, err := r.ReadUvarint(); u != 300 || err != nil {
		t.Fatalf("uvarint = %d, %v", u, err)
	}
	if empty, err := r.ReadRow(); len(empty) != 0 || err != nil {
		t.Fatalf("empty row = %v, %v", empty, err)
	}
	if b, err := r.ReadBig(); err != nil || b.Int64() != 0x1234567 {
		t.Fatalf("big = %v, %v", b, err)
	}
	if b, err := r.ReadBig(); err != nil || b.Sign() != 0 {
		t.Fatalf("nil big = %v, %v", b, err)
	}
	if v, err := r.ReadValue(); err != nil || v.K != types.KindString || v.S != "" {
		t.Fatalf("value = %v, %v", v, err)
	}
	if _, err := r.ReadRow(); err != io.EOF {
		t.Fatalf("after the last component: %v, want io.EOF", err)
	}
	if _, err := r.ReadValue(); err == nil || err == io.EOF {
		t.Fatalf("ReadValue at end of stream: %v, want a truncation error", err)
	}
}

// TestCodecRefusesNegativeShare: the run-file path refuses a negative big
// instead of writing its magnitude, and a refused row leaves no bytes
// behind it.
func TestCodecRefusesNegativeShare(t *testing.T) {
	neg := big.NewInt(-5)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteRow(types.Row{types.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	for name, err := range map[string]error{
		"WriteValue": w.WriteValue(types.NewShare(neg)),
		"WriteBig":   w.WriteBig(neg),
		"WriteRow":   w.WriteRow(types.Row{types.NewString("kept out"), types.NewShare(neg)}),
	} {
		if !errors.Is(err, types.ErrNegativeShare) {
			t.Errorf("%s(-5): %v, want ErrNegativeShare", name, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, []byte{1, 1, 2}) {
		t.Fatalf("stream holds % x after refused writes, want only the first row", got)
	}
}

// TestCodecWindowSpansLargeComponents drives rows far wider than the
// reader's window (and the writer's flush threshold) through a stream.
func TestCodecWindowSpansLargeComponents(t *testing.T) {
	long := strings.Repeat("x", 5*bufSize+17)
	wide := new(big.Int).Lsh(big.NewInt(1), 8*3*bufSize)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	const n = 20
	for i := 0; i < n; i++ {
		if err := w.WriteRow(types.Row{types.NewInt(int64(i)), types.NewString(long), types.NewShare(wide)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	for i := 0; i < n; i++ {
		row, err := r.ReadRow()
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if row[0].I != int64(i) || row[1].S != long || row[2].B.Cmp(wide) != 0 {
			t.Fatalf("row %d corrupted", i)
		}
	}
	if _, err := r.ReadRow(); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
}

func TestBudgetReserveReleaseThreshold(t *testing.T) {
	b := NewBudget(100, 40)
	// headroom 40 capped below limit/2? 40 < 50, threshold = 60.
	if !b.TryReserve(60) {
		t.Fatal("reservation up to the threshold must succeed")
	}
	if b.TryReserve(1) {
		t.Fatal("reservation past the threshold must fail")
	}
	b.Release(10)
	if !b.TryReserve(10) {
		t.Fatal("released rows must be reservable again")
	}
	b.ForceReserve(1000)
	if got := b.Used(); got != 1060 {
		t.Fatalf("Used() = %d, want 1060", got)
	}
	b.Release(2000)
	if got := b.Used(); got != 0 {
		t.Fatalf("over-release must clamp to 0, got %d", got)
	}
}

func TestBudgetHeadroomCappedForTinyLimits(t *testing.T) {
	b := NewBudget(8, 1024)
	// Headroom is capped at limit/2, so half the budget stays reservable.
	if !b.TryReserve(4) {
		t.Fatal("tiny budget must still admit limit/2 rows")
	}
	if b.TryReserve(1) {
		t.Fatal("tiny budget over-admitted")
	}
}

func TestBudgetUnlimited(t *testing.T) {
	for _, b := range []*Budget{nil, NewBudget(0, 100), NewBudget(-5, 0)} {
		if !b.Unlimited() {
			t.Fatal("expected unlimited")
		}
		if !b.TryReserve(1 << 40) {
			t.Fatal("unlimited budget refused a reservation")
		}
		b.Release(1 << 40)
	}
}

func TestSessionLifecycle(t *testing.T) {
	parent := t.TempDir()
	s := NewSession(parent)
	if entries, _ := os.ReadDir(parent); len(entries) != 0 {
		t.Fatal("session created its directory eagerly")
	}
	f, err := s.Create()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("payload"); err != nil {
		t.Fatal(err)
	}
	if s.Files() != 1 {
		t.Fatalf("Files() = %d, want 1", s.Files())
	}
	if entries, _ := os.ReadDir(parent); len(entries) != 1 {
		t.Fatalf("expected one session dir under parent, got %d entries", len(entries))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if entries, _ := os.ReadDir(parent); len(entries) != 0 {
		t.Fatal("Close left the session directory behind")
	}
	// The open descriptor survives the unlink.
	if _, err := f.WriteString("more"); err != nil {
		t.Fatalf("write to unlinked spill file: %v", err)
	}
	f.Close()
	if _, err := s.Create(); err == nil {
		t.Fatal("Create after Close must fail")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close must be idempotent: %v", err)
	}
}

// TestSessionCreateCloseRace hammers concurrent Create/Close: whatever
// interleaving happens, the parent directory must end up empty.
func TestSessionCreateCloseRace(t *testing.T) {
	parent := t.TempDir()
	for i := 0; i < 50; i++ {
		s := NewSession(parent)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < 10; j++ {
					f, err := s.Create()
					if err != nil {
						return // session closed under us — expected
					}
					f.WriteString("x")
					f.Close()
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Close()
		}()
		wg.Wait()
		s.Close()
		entries, err := os.ReadDir(parent)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 0 {
			var names []string
			for _, e := range entries {
				names = append(names, filepath.Join(parent, e.Name()))
			}
			t.Fatalf("iteration %d leaked spill state: %v", i, names)
		}
	}
}

func TestSessionCounters(t *testing.T) {
	s := NewSession(t.TempDir())
	s.AddSpilledRows(10)
	s.AddSpilledRows(5)
	s.AddSpill()
	if s.SpilledRows() != 15 || s.Spills() != 1 {
		t.Fatalf("counters = (%d rows, %d spills), want (15, 1)", s.SpilledRows(), s.Spills())
	}
	s.Close()
}
