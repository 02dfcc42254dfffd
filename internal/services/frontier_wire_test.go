package services

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"tax/internal/briefcase"
	"tax/internal/frontier"
)

// wireLease is a k-URL lease's worth of wire traffic: the records a
// fetcher reports, links links each, and the claims the reply carries.
func wireLease(k, links int) ([]*frontier.PageRecord, []*frontier.Claim) {
	recs := make([]*frontier.PageRecord, k)
	cls := make([]*frontier.Claim, k)
	for i := range recs {
		rec := &frontier.PageRecord{URL: fmt.Sprintf("http://webserv/d1/p%03d.html", i), Referrer: "http://webserv/",
			Depth: 1, Status: 200, Bytes: 3145, Type: "text/html", AgeDays: 17,
			FetchCost: 4 * time.Millisecond, Digest: "200|3145|17"}
		for j := 0; j < links; j++ {
			rec.Links = append(rec.Links, frontier.Link{URL: fmt.Sprintf("http://webserv/d2/p%03d.html", links*i+j), Referrer: rec.URL})
		}
		recs[i] = rec
		cls[i] = &frontier.Claim{URL: fmt.Sprintf("http://webserv/d2/p%03d.html", i), Referrer: rec.URL, Depth: 2}
	}
	return recs, cls
}

// TestFrontierBatchWireAllocs pins the allocations of one k = 8 round
// trip of the frontier RPC's wire path, ten links a record: Batch's
// request, its encoding and decoding, parseBatch, setClaims, the
// reply's encoding and decoding, and parseClaims. A codec that
// allocates per field again shows up here.
func TestFrontierBatchWireAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("exact allocation counts do not hold under the race detector")
	}
	recs, cls := wireLease(8, 10)
	var err error
	roundTrip := func() {
		var req, resp *briefcase.Briefcase
		if req, err = briefcase.Decode(batchRequest("agent-w1", recs, nil, 8).Encode()); err != nil {
			return
		}
		if _, _, _, _, err = parseBatch(req); err != nil {
			return
		}
		reply := briefcase.New()
		setClaims(reply, cls)
		if resp, err = briefcase.Decode(reply.Encode()); err != nil {
			return
		}
		_, _, err = parseClaims(resp)
	}
	allocs := testing.AllocsPerRun(100, roundTrip)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("one k = 8 batch round trip: %.0f allocs", allocs)
	// Measured 58: 68 before a small briefcase kept its folder list
	// inline and took its folder names from the names table, 74 before
	// setClaims and batchRequest sized their folders up front, 378 when
	// each record field, link and claim element was its own string or
	// copy.
	const want = 58
	if allocs != want {
		t.Errorf("one k = 8 batch round trip costs %.0f allocations, want %d", allocs, want)
	}
}

// FuzzBatchWire: no briefcase makes parseBatch or parseClaims panic,
// and setClaims → parseClaims round-trips any claim list, through the
// codec or not, URLs and referrers empty or full of bars included. A
// claim list is text split at NULs into URL, referrer, URL, ...
func FuzzBatchWire(f *testing.F) {
	recs, cls := wireLease(2, 2)
	reply := briefcase.New()
	setClaims(reply, cls)
	fails := []frontier.FetchFailure{{URL: "http://h/c", Attempt: 1, Code: "wb_fetch_failed", Reason: "reset|by peer", Retryable: true}}
	f.Add(batchRequest("w1", recs, fails, 8).Encode(), "http://h/a\x00http://h/|x\x00\x00", uint8(2))
	f.Add(reply.Encode(), "|\x00||\x00a|b\x00", uint8(0))
	f.Add([]byte{}, "", uint8(7))
	f.Fuzz(func(t *testing.T, frame []byte, text string, depth uint8) {
		if b, err := briefcase.Decode(frame); err == nil {
			_, _, _, _, _ = parseBatch(b)
			_, _, _ = parseClaims(b)
		}

		parts := strings.Split(text, "\x00")
		want := make([]*frontier.Claim, (len(parts)+1)/2)
		for i := range want {
			cl := &frontier.Claim{URL: parts[2*i], Depth: int(depth) + i, Attempts: i % 3}
			if 2*i+1 < len(parts) {
				cl.Referrer = parts[2*i+1]
			}
			if i%3 == 1 {
				cl.Prior = &frontier.PageRecord{URL: cl.URL, Status: 200, Digest: cl.Referrer}
			}
			want[i] = cl
		}
		resp := briefcase.New()
		setClaims(resp, want)
		wire, err := briefcase.Decode(resp.Encode())
		if err != nil {
			t.Fatalf("a reply does not decode: %v", err)
		}
		for _, b := range []*briefcase.Briefcase{resp, wire} {
			got, state, err := parseClaims(b)
			if err != nil || state != FrontierStateClaimed || !reflect.DeepEqual(got, want) {
				t.Fatalf("parseClaims(setClaims(%+v)) = (%+v, %q, %v)", want, got, state, err)
			}
		}
	})
}
