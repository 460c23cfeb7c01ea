package rdf

import (
	"testing"
	"testing/quick"
	"time"
)

func TestIRILocalName(t *testing.T) {
	tests := []struct {
		iri  IRI
		want string
	}{
		{IRI("http://example.org/ns#Recipe"), "Recipe"},
		{IRI("http://example.org/recipes/apple-pie"), "apple-pie"},
		{IRI("urn:isbn:12345"), "urn:isbn:12345"},
		{IRI("http://example.org/path/"), "http://example.org/path/"},
		{IRI(""), ""},
	}
	for _, tt := range tests {
		if got := tt.iri.LocalName(); got != tt.want {
			t.Errorf("LocalName(%q) = %q, want %q", tt.iri, got, tt.want)
		}
	}
}

func TestLiteralConstructorsRoundTrip(t *testing.T) {
	if v, ok := NewInteger(-42).Int(); !ok || v != -42 {
		t.Errorf("NewInteger(-42).Int() = %d, %v", v, ok)
	}
	if v, ok := NewFloat(3.5).Float(); !ok || v != 3.5 {
		t.Errorf("NewFloat(3.5).Float() = %g, %v", v, ok)
	}
	if v, ok := NewBool(true).Bool(); !ok || !v {
		t.Errorf("NewBool(true).Bool() = %v, %v", v, ok)
	}
	when := time.Date(2003, 7, 31, 12, 30, 0, 0, time.UTC)
	if v, ok := NewTime(when).Time(); !ok || !v.Equal(when) {
		t.Errorf("NewTime round trip = %v, %v", v, ok)
	}
	if v, ok := NewDate(when).Time(); !ok || v.Format("2006-01-02") != "2003-07-31" {
		t.Errorf("NewDate round trip = %v, %v", v, ok)
	}
}

func TestLiteralFloatFromTemporal(t *testing.T) {
	when := time.Date(2003, 8, 1, 0, 0, 0, 0, time.UTC)
	f, ok := NewTime(when).Float()
	if !ok {
		t.Fatal("temporal literal should convert to float")
	}
	if int64(f) != when.Unix() {
		t.Errorf("Float() = %v, want %v", int64(f), when.Unix())
	}
}

func TestLiteralKindPredicates(t *testing.T) {
	tests := []struct {
		lit      Literal
		numeric  bool
		temporal bool
	}{
		{NewInteger(1), true, false},
		{NewFloat(1), true, false},
		{NewString("1"), false, false},
		{NewTime(time.Now()), false, true},
		{NewDate(time.Now()), false, true},
		{NewBool(false), false, false},
	}
	for _, tt := range tests {
		if got := tt.lit.IsNumeric(); got != tt.numeric {
			t.Errorf("%v.IsNumeric() = %v, want %v", tt.lit, got, tt.numeric)
		}
		if got := tt.lit.IsTemporal(); got != tt.temporal {
			t.Errorf("%v.IsTemporal() = %v, want %v", tt.lit, got, tt.temporal)
		}
	}
}

func TestTermKeysDistinguishKinds(t *testing.T) {
	// The integer literal "1", the plain string "1", and an IRI "1" must
	// all have distinct keys.
	keys := map[string]string{}
	terms := map[string]Term{
		"integer": NewInteger(1),
		"string":  NewString("1"),
		"iri":     IRI("1"),
		"blank":   Blank("1"),
		"lang":    NewLangString("1", "en"),
	}
	for name, tm := range terms {
		k := tm.Key()
		if prev, dup := keys[k]; dup {
			t.Errorf("key collision between %s and %s: %q", prev, name, k)
		}
		keys[k] = name
	}
}

func TestLiteralStringEscaping(t *testing.T) {
	tests := []struct {
		in   Literal
		want string
	}{
		{NewString(`plain`), `"plain"`},
		{NewString("a\"b"), `"a\"b"`},
		{NewString("a\\b"), `"a\\b"`},
		{NewString("a\nb"), `"a\nb"`},
		{NewString("tab\there"), `"tab\there"`},
		{NewLangString("hi", "en"), `"hi"@en`},
		{NewInteger(7), `"7"^^<http://www.w3.org/2001/XMLSchema#integer>`},
	}
	for _, tt := range tests {
		if got := tt.in.String(); got != tt.want {
			t.Errorf("String() = %s, want %s", got, tt.want)
		}
	}
}

func TestPlainName(t *testing.T) {
	tests := []struct {
		in   IRI
		want string
	}{
		{IRI(NSMagnet + "cookingMethod"), "cooking Method"},
		{IRI(NSMagnet + "cooking_method"), "cooking method"},
		{IRI(NSMagnet + "Cuisine"), "Cuisine"},
		{IRI(NSMagnet + "hasXMLPath"), "has XMLPath"},
	}
	for _, tt := range tests {
		if got := PlainName(tt.in); got != tt.want {
			t.Errorf("PlainName(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestQuickLiteralIntRoundTrip(t *testing.T) {
	f := func(v int64) bool {
		got, ok := NewInteger(v).Int()
		return ok && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickLiteralStringEscapeNeverPanicsAndQuotes(t *testing.T) {
	f := func(s string) bool {
		out := NewString(s).String()
		return len(out) >= 2 && out[0] == '"'
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// "NaN" and "INF" are legal xsd:double lexical forms that strconv accepts;
// Float reports them (and out-of-range magnitudes) as not numeric, so no
// consumer ever places a non-finite value on a numeric axis.
func TestLiteralFloatRejectsNonFinite(t *testing.T) {
	for _, lex := range []string{"NaN", "nan", "INF", "-INF", "+Inf", "infinity", "1e400", "-1e400"} {
		l := Literal{Lexical: lex, Datatype: XSDDouble}
		if f, ok := l.Float(); ok {
			t.Errorf("Float(%q) = %g, true; want not numeric", lex, f)
		}
	}
	for lex, want := range map[string]float64{"1.5": 1.5, "-2": -2, "1e308": 1e308, "0": 0} {
		if f, ok := (Literal{Lexical: lex, Datatype: XSDDouble}).Float(); !ok || f != want {
			t.Errorf("Float(%q) = %g, %v; want %g", lex, f, ok, want)
		}
	}
}
