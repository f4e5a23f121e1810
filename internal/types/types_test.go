package types

import (
	"math/big"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
	}{
		{NewInt(5), KindInt},
		{NewDecimal(123), KindDecimal},
		{NewDate(100), KindDate},
		{NewString("x"), KindString},
		{NewBool(true), KindBool},
		{NewShare(big.NewInt(9)), KindShare},
		{Null, KindNull},
	}
	for _, c := range cases {
		if c.v.K != c.kind {
			t.Errorf("kind = %s, want %s", c.v.K, c.kind)
		}
	}
	if !NewBool(true).Bool() || NewBool(false).Bool() || Null.Bool() {
		t.Error("Bool() semantics wrong")
	}
	if NewShare(big.NewInt(3)).Share().Int64() != 3 || NewInt(3).Share() != nil {
		t.Error("Share() accessor wrong")
	}
}

func TestCompareOrdering(t *testing.T) {
	if NewInt(1).Compare(NewInt(2)) != -1 || NewInt(2).Compare(NewInt(1)) != 1 || NewInt(2).Compare(NewInt(2)) != 0 {
		t.Error("int compare")
	}
	if NewString("a").Compare(NewString("b")) != -1 {
		t.Error("string compare")
	}
	if Null.Compare(NewInt(1)) != -1 || NewInt(1).Compare(Null) != 1 || Null.Compare(Null) != 0 {
		t.Error("null sorts first")
	}
	if NewShare(big.NewInt(1)).Compare(NewShare(big.NewInt(2))) != -1 {
		t.Error("share residue compare")
	}
}

func TestEqualAcrossKinds(t *testing.T) {
	if NewInt(1).Equal(NewDecimal(1)) {
		t.Error("different kinds must not be Equal")
	}
	if !NewShare(big.NewInt(5)).Equal(NewShare(big.NewInt(5))) {
		t.Error("equal shares")
	}
}

func TestGroupKeyDistinguishesKinds(t *testing.T) {
	keys := map[string]bool{}
	for _, v := range []Value{NewInt(1), NewDecimal(1), NewDate(1), NewString("1"), Null, NewShare(big.NewInt(1))} {
		k := v.GroupKey()
		if keys[k] {
			t.Errorf("group key collision at %v", v)
		}
		keys[k] = true
	}
}

func TestAppendGroupKeyIsGroupKey(t *testing.T) {
	wide := new(big.Int).Lsh(big.NewInt(1), 600) // longer than GroupKey's stack buffer
	prefix := []byte("p")
	for _, v := range []Value{Null, NewInt(-1), NewBool(true), NewString(""), NewString("héllo"),
		NewShare(nil), NewShare(new(big.Int)), NewShare(big.NewInt(255)), NewShare(wide)} {
		got := v.AppendGroupKey(prefix)
		if string(got[:1]) != "p" || string(got[1:]) != v.GroupKey() {
			t.Errorf("%v: AppendGroupKey %x, GroupKey %x", v, got, v.GroupKey())
		}
	}
	if NewShare(nil).GroupKey() != NewShare(new(big.Int)).GroupKey() {
		t.Error("a nil share is the zero residue")
	}
}

func TestDates(t *testing.T) {
	v, err := ParseDate("1995-06-17")
	if err != nil {
		t.Fatal(err)
	}
	if FormatDate(v) != "1995-06-17" {
		t.Errorf("round trip: %s", FormatDate(v))
	}
	if _, err := ParseDate("not-a-date"); err == nil {
		t.Error("expected parse error")
	}
}

func TestFormatDecimal(t *testing.T) {
	cases := []struct {
		scaled int64
		scale  int
		want   string
	}{
		{12345, 2, "123.45"},
		{-12345, 2, "-123.45"},
		{5, 2, "0.05"},
		{7, 0, "7"},
		{100, 3, "0.100"},
	}
	for _, c := range cases {
		if got := FormatDecimal(c.scaled, c.scale); got != c.want {
			t.Errorf("FormatDecimal(%d, %d) = %q, want %q", c.scaled, c.scale, got, c.want)
		}
	}
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema([]Column{
		{Name: "a", Type: ColumnType{Kind: KindInt}},
		{Name: "A", Type: ColumnType{Kind: KindInt}},
	}); err == nil {
		t.Error("duplicate names should fail")
	}
	if _, err := NewSchema([]Column{
		{Name: "s", Type: ColumnType{Kind: KindString, Sensitive: true}},
	}); err == nil {
		t.Error("sensitive string should fail")
	}
	s, err := NewSchema([]Column{
		{Name: "a", Type: ColumnType{Kind: KindInt}},
		{Name: "b", Type: ColumnType{Kind: KindDecimal, Scale: 2, Sensitive: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Find("B") != 1 || s.Find("nope") != -1 {
		t.Error("Find")
	}
	if !s.HasSensitive() || s.Len() != 2 {
		t.Error("schema accessors")
	}
}

func TestRowClone(t *testing.T) {
	r := Row{NewInt(1), NewString("x")}
	c := r.Clone()
	c[0] = NewInt(9)
	if r[0].I != 1 {
		t.Error("clone aliased the original")
	}
}

func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(a, b int64) bool {
		return NewInt(a).Compare(NewInt(b)) == -NewInt(b).Compare(NewInt(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
