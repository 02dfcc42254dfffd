package services

import (
	"errors"
	"reflect"
	"testing"

	"tax/internal/briefcase"
	"tax/internal/frontier"
)

// TestParseClaimRejectsMalformedReplies: a claim reply that does not
// parse is ErrBadRequest, never a claim at depth 0.
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
			cl, state, err := parseClaim(resp)
			if tt.state == "" {
				if !errors.Is(err, ErrBadRequest) {
					t.Fatalf("parseClaim = (%+v, %q, %v), want ErrBadRequest", cl, state, err)
				}
				return
			}
			if err != nil || state != tt.state {
				t.Fatalf("parseClaim = (%+v, %q, %v), want state %q", cl, state, err, tt.state)
			}
			if !reflect.DeepEqual(cl, tt.want) {
				t.Fatalf("claim %+v, want %+v", cl, tt.want)
			}
		})
	}
}
