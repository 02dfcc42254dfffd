package uri

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestParsePaperExamples(t *testing.T) {
	tests := []struct {
		in   string
		want URI
	}{
		{
			// Double slash: empty principal.
			in: "tacoma://cl2.cs.uit.no:27017//vm_c:933821661",
			want: URI{
				Host: "cl2.cs.uit.no", Port: 27017,
				Name: "vm_c", Instance: 0x933821661, HasInstance: true,
			},
		},
		{
			in: "tacoma://cl2.cs.uit.no/tacoma@cl2.cs.uit.no/ag_cron",
			want: URI{
				Host:      "cl2.cs.uit.no",
				Principal: "tacoma@cl2.cs.uit.no",
				Name:      "ag_cron",
			},
		},
		{
			in: "tacomaproject/:933821661",
			want: URI{
				Principal: "tacomaproject",
				Instance:  0x933821661, HasInstance: true,
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.in, func(t *testing.T) {
			got, err := Parse(tt.in)
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			if !got.Equal(tt.want) {
				t.Errorf("Parse = %+v, want %+v", got, tt.want)
			}
		})
	}
}

func TestParseForms(t *testing.T) {
	tests := []struct {
		name string
		in   string
		want URI
	}{
		{"name only", "ag_fs", URI{Name: "ag_fs"}},
		{"instance only", ":ff", URI{Instance: 0xff, HasInstance: true}},
		{"name and instance", "worker:a1", URI{Name: "worker", Instance: 0xa1, HasInstance: true}},
		{"principal and name", "alice/worker", URI{Principal: "alice", Name: "worker"}},
		{"remote default port", "tacoma://h1/sys/fw", URI{Host: "h1", Principal: "sys", Name: "fw"}},
		{"remote no principal", "tacoma://h1//ag", URI{Host: "h1", Name: "ag"}},
		{"remote bare class", "tacoma://h1/alice/", URI{Host: "h1", Principal: "alice"}},
		{"instance zero", "ag:0", URI{Name: "ag", HasInstance: true}},
		{"principal with at-sign", "bob@h2/ag", URI{Principal: "bob@h2", Name: "ag"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Parse(tt.in)
			if err != nil {
				t.Fatalf("Parse(%q): %v", tt.in, err)
			}
			if !got.Equal(tt.want) {
				t.Errorf("Parse(%q) = %+v, want %+v", tt.in, got, tt.want)
			}
		})
	}
}

func TestParseErrors(t *testing.T) {
	tests := []string{
		"",
		"tacoma://",            // no slash after hostport
		"tacoma:///ag",         // empty host
		"tacoma://h1:0/ag",     // bad port
		"tacoma://h1:notnum/x", // bad port
		"tacoma://h1:999999/x", // port out of range
		"ag:xyz-not-hex",       // bad instance
		"ag:",                  // empty instance
		"sp ace",               // bad name rune
		"tacoma://h ost/p/a",   // bad host rune
	}
	for _, in := range tests {
		t.Run(in, func(t *testing.T) {
			if _, err := Parse(in); !errors.Is(err, ErrParse) {
				t.Errorf("Parse(%q) err = %v, want ErrParse", in, err)
			}
		})
	}
}

func TestStringRoundTrip(t *testing.T) {
	inputs := []string{
		"tacoma://cl2.cs.uit.no:27018//vm_c:933821661",
		"tacoma://cl2.cs.uit.no/tacoma@cl2.cs.uit.no/ag_cron",
		"tacomaproject/:933821661",
		"ag_fs",
		":ff",
		"alice/worker:1",
	}
	for _, in := range inputs {
		u, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		back, err := Parse(u.String())
		if err != nil {
			t.Fatalf("reparse(%q -> %q): %v", in, u.String(), err)
		}
		if !u.Equal(back) {
			t.Errorf("round trip %q -> %q -> %+v != %+v", in, u.String(), back, u)
		}
	}
}

func TestStringDefaultPortElided(t *testing.T) {
	u := URI{Host: "h1", Port: DefaultPort, Name: "ag"}
	if got := u.String(); strings.Contains(got, ":27017") {
		t.Errorf("default port not elided: %q", got)
	}
	u.Port = 28000
	if got := u.String(); !strings.Contains(got, ":28000") {
		t.Errorf("non-default port missing: %q", got)
	}
}

func TestMatches(t *testing.T) {
	reg := URI{Principal: "alice", Name: "webbot", Instance: 7, HasInstance: true}
	tests := []struct {
		name  string
		query URI
		want  bool
	}{
		{"full match", URI{Principal: "alice", Name: "webbot", Instance: 7, HasInstance: true}, true},
		{"name only (class)", URI{Name: "webbot"}, true},
		{"instance only", URI{Instance: 7, HasInstance: true}, true},
		{"empty principal matches", URI{Name: "webbot", Instance: 7, HasInstance: true}, true},
		{"wrong name", URI{Name: "other"}, false},
		{"wrong instance", URI{Name: "webbot", Instance: 8, HasInstance: true}, false},
		{"wrong principal", URI{Principal: "bob", Name: "webbot"}, false},
		{"match anything", URI{}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := reg.Matches(tt.query); got != tt.want {
				t.Errorf("Matches(%+v) = %v, want %v", tt.query, got, tt.want)
			}
		})
	}
}

func TestHelpers(t *testing.T) {
	u := MustParse("ag_exec")
	if !u.IsLocal() {
		t.Error("name-only URI should be local")
	}
	r := u.WithHost("h2", 0)
	if r.IsLocal() || r.Host != "h2" || r.EffectivePort() != DefaultPort {
		t.Errorf("WithHost: %+v", r)
	}
	i := u.withInstance(0xabc)
	if !i.HasInstance || i.Instance != 0xabc {
		t.Errorf("withInstance: %+v", i)
	}
	// receiver unchanged (value semantics)
	if u.HasInstance || !u.IsLocal() {
		t.Errorf("receiver mutated: %+v", u)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse did not panic on bad input")
		}
	}()
	MustParse("::::")
}

// Property: String/Parse are inverse for generated URIs.
func TestPropStringParseInverse(t *testing.T) {
	names := []string{"ag", "vm_c", "ag_exec", "webbot", "a1-b.c"}
	hosts := []string{"", "h1", "cl2.cs.uit.no"}
	principals := []string{"", "alice", "tacoma@h1"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		u := URI{
			Host:      hosts[rng.Intn(len(hosts))],
			Principal: principals[rng.Intn(len(principals))],
			Name:      names[rng.Intn(len(names))],
		}
		if u.Host != "" && rng.Intn(2) == 0 {
			u.Port = 1024 + rng.Intn(60000)
		}
		if rng.Intn(2) == 0 {
			u.Instance = rng.Uint64()
			u.HasInstance = true
		}
		got, err := Parse(u.String())
		return err == nil && got.Equal(u)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Parse never panics on arbitrary strings.
func TestPropParseTotal(t *testing.T) {
	f := func(s string) bool {
		u, err := Parse(s)
		if err != nil {
			return true
		}
		// Valid parses must round-trip.
		got, err := Parse(u.String())
		return err == nil && got.Equal(u)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
