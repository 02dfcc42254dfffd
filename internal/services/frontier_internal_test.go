package services

import (
	"errors"
	"reflect"
	"testing"

	"tax/internal/briefcase"
	"tax/internal/frontier"
)

// TestParseClaimRejectsMalformedReplies: a claim reply that does not
// parse is ErrBadRequest, never a claim at depth 0. Each case is a
// one-claim reply; TestParseClaimsLease covers replies of several.
func TestParseClaimRejectsMalformedReplies(t *testing.T) {
	prior := (&frontier.PageRecord{URL: "http://h/a", Status: 200, Digest: "200|1|2"}).Encode()
	tests := []struct {
		name    string
		folders map[string]string
		prior   []byte
		want    *frontier.Claim
		state   string
	}{
		{"claim", map[string]string{FolderFrState: "claimed", FolderFrURL: "http://h/a", FolderFrClaim: "2|1|http://h/"}, nil,
			&frontier.Claim{URL: "http://h/a", Referrer: "http://h/", Depth: 2, Attempts: 1}, "claimed"},
		{"referrer with bars", map[string]string{FolderFrState: "claimed", FolderFrURL: "u", FolderFrClaim: "0|0|a|b"}, nil,
			&frontier.Claim{URL: "u", Referrer: "a|b"}, "claimed"},
		{"with prior", map[string]string{FolderFrState: "claimed", FolderFrURL: "http://h/a", FolderFrClaim: "1|0|"}, prior,
			&frontier.Claim{URL: "http://h/a", Depth: 1, Prior: &frontier.PageRecord{URL: "http://h/a", Status: 200, Digest: "200|1|2"}}, "claimed"},
		{"drained", map[string]string{FolderFrState: "drained"}, nil, nil, "drained"},
		{"no state", map[string]string{FolderFrURL: "u", FolderFrClaim: "1|0|"}, nil, nil, ""},
		{"unknown state", map[string]string{FolderFrState: "wait"}, nil, nil, ""},
		{"no URL", map[string]string{FolderFrState: "claimed", FolderFrClaim: "1|0|"}, nil, nil, ""},
		{"no metadata", map[string]string{FolderFrState: "claimed", FolderFrURL: "u"}, nil, nil, ""},
		{"two fields", map[string]string{FolderFrState: "claimed", FolderFrURL: "u", FolderFrClaim: "1|0"}, nil, nil, ""},
		{"depth not a number", map[string]string{FolderFrState: "claimed", FolderFrURL: "u", FolderFrClaim: "x|0|"}, nil, nil, ""},
		{"depth empty", map[string]string{FolderFrState: "claimed", FolderFrURL: "u", FolderFrClaim: "|0|"}, nil, nil, ""},
		{"depth negative", map[string]string{FolderFrState: "claimed", FolderFrURL: "u", FolderFrClaim: "-1|0|"}, nil, nil, ""},
		{"depth overflows", map[string]string{FolderFrState: "claimed", FolderFrURL: "u", FolderFrClaim: "99999999999999999999|0|"}, nil, nil, ""},
		{"depth with suffix", map[string]string{FolderFrState: "claimed", FolderFrURL: "u", FolderFrClaim: "2x|0|"}, nil, nil, ""},
		{"attempts not a number", map[string]string{FolderFrState: "claimed", FolderFrURL: "u", FolderFrClaim: "1|y|"}, nil, nil, ""},
		{"prior garbage", map[string]string{FolderFrState: "claimed", FolderFrURL: "u", FolderFrClaim: "1|0|"}, []byte{9, 9}, nil, ""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			resp := briefcase.New()
			for f, v := range tt.folders {
				resp.SetString(f, v)
			}
			if tt.prior != nil {
				resp.Ensure(FolderFrPrior).Append(tt.prior)
			}
			cls, state, err := parseClaims(resp)
			if tt.state == "" {
				if !errors.Is(err, ErrBadRequest) {
					t.Fatalf("parseClaims = (%+v, %q, %v), want ErrBadRequest", cls, state, err)
				}
				return
			}
			if err != nil || state != tt.state {
				t.Fatalf("parseClaims = (%+v, %q, %v), want state %q", cls, state, err, tt.state)
			}
			var want []*frontier.Claim
			if tt.want != nil {
				want = []*frontier.Claim{tt.want}
			}
			if !reflect.DeepEqual(cls, want) {
				t.Fatalf("claims %+v, want %+v", cls, want)
			}
		})
	}
}

// TestParseClaimsLease: a reply of several claims carries one element
// per claim in every claim folder, an empty prior element for a claim
// without one, and setClaims writes what parseClaims reads.
func TestParseClaimsLease(t *testing.T) {
	prior := &frontier.PageRecord{URL: "http://h/b", Status: 200, Digest: "200|1|2"}
	cls := []*frontier.Claim{
		{URL: "http://h/a", Referrer: "http://h/|x", Depth: 1},
		{URL: "http://h/b", Depth: 2, Attempts: 1, Prior: prior},
		{URL: "http://h/c", Referrer: "http://h/", Depth: 2},
	}
	resp := briefcase.New()
	setClaims(resp, cls)
	got, state, err := parseClaims(resp)
	if err != nil || state != FrontierStateClaimed || !reflect.DeepEqual(got, cls) {
		t.Fatalf("parseClaims(setClaims(cls)) = (%+v, %q, %v), want %+v", got, state, err, cls)
	}
	resp = briefcase.New()
	setClaims(resp, cls[:1])
	if resp.Has(FolderFrPrior) {
		t.Fatal("a reply without priors carries a prior folder")
	}

	for _, tt := range []struct {
		name   string
		damage func(b *briefcase.Briefcase)
	}{
		{"metadata short", func(b *briefcase.Briefcase) { b.Ensure(FolderFrClaim).Pop() }},
		{"URL short", func(b *briefcase.Briefcase) { b.Ensure(FolderFrURL).Pop() }},
		{"prior short", func(b *briefcase.Briefcase) { b.Ensure(FolderFrPrior).Pop() }},
		{"prior long", func(b *briefcase.Briefcase) { b.Ensure(FolderFrPrior).AppendString("") }},
		{"second metadata bad", func(b *briefcase.Briefcase) {
			f := b.Ensure(FolderFrClaim)
			f.Remove(1)
			f.Insert(1, []byte("2|x|"))
		}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			resp := briefcase.New()
			setClaims(resp, cls)
			tt.damage(resp)
			if got, state, err := parseClaims(resp); !errors.Is(err, ErrBadRequest) {
				t.Fatalf("parseClaims = (%+v, %q, %v), want ErrBadRequest", got, state, err)
			}
		})
	}
}

// TestParseBatch: a batch request's failures travel as parallel
// folders, so a reason may hold any text; folders of unequal length, a
// missing lease and an unknown retry flag are ErrBadRequest.
func TestParseBatch(t *testing.T) {
	build := func() *briefcase.Briefcase {
		req := briefcase.New()
		req.SetString(FolderFrWorker, "w1")
		req.SetString(FolderFrLease, "4")
		req.Ensure(FolderFrRecord).Append((&frontier.PageRecord{URL: "http://h/a", Status: 200}).Encode())
		req.Ensure(FolderFrURL).AppendString("http://h/b", "http://h/c")
		req.Ensure(FolderFrCode).AppendString("wb_fetch_failed", "wb_fetch_failed")
		req.Ensure(FolderFrReason).AppendString("reset|by peer", "")
		req.Ensure(FolderFrRetryable).AppendString("1", "0")
		return req
	}
	worker, k, recs, fails, err := parseBatch(build())
	wantFails := []frontier.FetchFailure{
		{URL: "http://h/b", Code: "wb_fetch_failed", Reason: "reset|by peer", Retryable: true},
		{URL: "http://h/c", Code: "wb_fetch_failed"},
	}
	if err != nil || worker != "w1" || k != 4 || len(recs) != 1 || recs[0].URL != "http://h/a" || !reflect.DeepEqual(fails, wantFails) {
		t.Fatalf("parseBatch = (%q, %d, %+v, %+v, %v)", worker, k, recs, fails, err)
	}
	for _, tt := range []struct {
		name   string
		damage func(b *briefcase.Briefcase)
	}{
		{"no worker", func(b *briefcase.Briefcase) { b.Drop(FolderFrWorker) }},
		{"no lease", func(b *briefcase.Briefcase) { b.Drop(FolderFrLease) }},
		{"lease zero", func(b *briefcase.Briefcase) { b.SetString(FolderFrLease, "0") }},
		{"bad record", func(b *briefcase.Briefcase) { b.Ensure(FolderFrRecord).AppendString("junk") }},
		{"reason missing", func(b *briefcase.Briefcase) { b.Ensure(FolderFrReason).Pop() }},
		{"code missing", func(b *briefcase.Briefcase) { b.Drop(FolderFrCode) }},
		{"retry flag unknown", func(b *briefcase.Briefcase) {
			b.SetString(FolderFrRetryable, "yes")
			b.Ensure(FolderFrRetryable).AppendString("0")
		}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			req := build()
			tt.damage(req)
			if _, _, _, _, err := parseBatch(req); !errors.Is(err, ErrBadRequest) {
				t.Fatalf("parseBatch = %v, want ErrBadRequest", err)
			}
		})
	}
}
