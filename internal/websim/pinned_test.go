package websim

import (
	"encoding/hex"
	"fmt"
	"testing"
)

// TestCaseStudySitePinned holds Generate to the exact sites it produced
// before its URLs were built without fmt: a canonical dump of every
// page, link, robots line and link list hashes to the committed digest.
// TestGenerateDeterministic only compares two runs of the same build,
// so a formatting drift that both runs share would pass it.
func TestCaseStudySitePinned(t *testing.T) {
	for _, tc := range []struct{ host, sha string }{
		{"webserv", "f5741a6db4c0fe666a4e4b6bc6dd76633e03d687725fc4fd59e29f6c5815edb9"},
		{"web0001", "cffc9158ba445eb050ac4a8d32fe7362923f8b75ffe21d32372ddf1fbe83d611"},
	} {
		site, err := Generate(CaseStudySpec(tc.host))
		if err != nil {
			t.Fatal(err)
		}
		sum := site.Fingerprint()
		if got := hex.EncodeToString(sum[:]); got != tc.sha {
			t.Errorf("%s: site fingerprint %s, want %s", tc.host, got, tc.sha)
		}
	}
}

func TestAppendPageNoMatchesSprintf(t *testing.T) {
	for _, n := range []int{0, 7, 42, 999, 1000, 12345} {
		want := fmt.Sprintf("%04d", n)
		if got := string(appendPageNo(nil, n)); got != want {
			t.Errorf("appendPageNo(%d) = %q, want %q", n, got, want)
		}
	}
}
