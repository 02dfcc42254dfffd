package frontier

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// Link is a discovered URL on its way into the frontier: where it
// points, which page referred to it, and the crawl depth it would be
// fetched at. Depth participates in priority — the frontier always
// hands out the shallowest pending URL next, so a staged crawl expands
// the same breadth-first wavefront on every run.
type Link struct {
	URL      string
	Referrer string
	Depth    int
}

// PageRecord is the durable result of fetching one URL: everything the
// canonical replay needs to reproduce the serial crawl's Stats without
// touching the network again. FetchCost is the virtual time the fetch
// cost on a private clock — politeness waits are excluded, so the cost
// is a pure function of the URL and the link profile, independent of
// worker count or scheduling.
type PageRecord struct {
	URL         string
	Referrer    string
	Depth       int
	Status      int
	Bytes       int    // response body bytes (for client accounting)
	Type        string // content type of OK pages; "" when the response had no page
	AgeDays     int
	FetchCost   time.Duration // virtual fetch time on a private clock, politeness excluded
	Digest      string        // cheap change detector: "status|size|age"
	Revalidated bool          // true when an unchanged prior record was reused via a HEAD probe
	Links       []Link        // out-links as parsed (Depth field unused; derived as Depth+1)
}

const recordVersion = 1

// Encode serializes the record for a cabinet value, into one
// allocation of exactly its size.
func (r *PageRecord) Encode() []byte {
	n := 1 + strLen(r.URL) + strLen(r.Referrer) + uvarintLen(uint64(r.Depth)) +
		uvarintLen(uint64(r.Status)) + uvarintLen(uint64(r.Bytes)) + strLen(r.Type) +
		uvarintLen(uint64(r.AgeDays)) + uvarintLen(uint64(r.FetchCost)) + strLen(r.Digest) +
		1 + uvarintLen(uint64(len(r.Links)))
	for _, l := range r.Links {
		n += strLen(l.URL) + strLen(l.Referrer)
	}
	b := make([]byte, 0, n)
	b = append(b, recordVersion)
	b = appendString(b, r.URL)
	b = appendString(b, r.Referrer)
	b = binary.AppendUvarint(b, uint64(r.Depth))
	b = binary.AppendUvarint(b, uint64(r.Status))
	b = binary.AppendUvarint(b, uint64(r.Bytes))
	b = appendString(b, r.Type)
	b = binary.AppendUvarint(b, uint64(r.AgeDays))
	b = binary.AppendUvarint(b, uint64(r.FetchCost))
	b = appendString(b, r.Digest)
	if r.Revalidated {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(r.Links)))
	for _, l := range r.Links {
		b = appendString(b, l.URL)
		b = appendString(b, l.Referrer)
	}
	return b
}

// DecodeRecord parses a record previously produced by Encode. Records
// arrive from fetchers on other hosts, so decoding is strict: a number
// that does not fit its field, or bytes after the last link, fail it.
// Every string field and link of the record is a slice of one copy of
// b, so the record never aliases b and costs three allocations (that
// copy, the record and its links) whatever its link count.
func DecodeRecord(b []byte) (*PageRecord, error) {
	d := newDecoder(b)
	if v := d.byte(); v != recordVersion {
		return nil, fmt.Errorf("frontier: record version %d (want %d)", v, recordVersion)
	}
	r := &PageRecord{
		URL:      d.str(),
		Referrer: d.str(),
		Depth:    d.int(),
		Status:   d.int(),
		Bytes:    d.int(),
		Type:     d.str(),
		AgeDays:  d.int(),
	}
	r.FetchCost = time.Duration(d.bounded(math.MaxInt64))
	r.Digest = d.str()
	r.Revalidated = d.byte() == 1
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.b))/2 {
		return nil, fmt.Errorf("frontier: record claims %d links in %d bytes", n, len(d.b))
	}
	if n > 0 && d.err == nil {
		r.Links = make([]Link, 0, n)
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		r.Links = append(r.Links, Link{URL: d.str(), Referrer: d.str()})
	}
	if d.err == nil && len(d.b) > 0 {
		d.err = fmt.Errorf("%d trailing bytes", len(d.b))
	}
	if d.err != nil {
		return nil, fmt.Errorf("frontier: bad record: %w", d.err)
	}
	return r, nil
}

// Failure is one entry in the failure journal: a URL the crawl could
// not (or chose not to) fetch, with the typed error code that names
// why. Terminal entries keep the URL out of the frontier; non-final
// entries record retry attempts for post-mortems and second passes.
type Failure struct {
	URL      string
	Referrer string
	Depth    int
	Attempts int
	Code     string // typed error code, e.g. "wb_fetch_failed", "wb_depth_unstable"
	Reason   string
	Final    bool
}

func (f *Failure) encode() []byte {
	b := make([]byte, 0, 32+len(f.URL)+len(f.Referrer)+len(f.Reason))
	b = append(b, recordVersion)
	b = appendString(b, f.URL)
	b = appendString(b, f.Referrer)
	b = binary.AppendUvarint(b, uint64(f.Depth))
	b = binary.AppendUvarint(b, uint64(f.Attempts))
	b = appendString(b, f.Code)
	b = appendString(b, f.Reason)
	if f.Final {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return b
}

func decodeFailure(b []byte) (*Failure, error) {
	d := newDecoder(b)
	if v := d.byte(); v != recordVersion {
		return nil, fmt.Errorf("frontier: failure version %d (want %d)", v, recordVersion)
	}
	f := &Failure{
		URL:      d.str(),
		Referrer: d.str(),
		Depth:    d.int(),
		Attempts: d.int(),
		Code:     d.str(),
		Reason:   d.str(),
	}
	f.Final = d.byte() == 1
	if d.err != nil {
		return nil, fmt.Errorf("frontier: bad failure: %w", d.err)
	}
	return f, nil
}

// entryState is where a URL stands in the frontier.
type entryState uint8

const (
	statePending entryState = iota
	stateClaimed
	stateDone
)

// entry is one URL the frontier holds. A pending or claimed entry's
// durable state is the fields encode writes; a done entry's is rec.
type entry struct {
	url      string
	referrer string
	depth    int
	attempts int
	worker   string // set only while claimed
	index    int    // heap position while pending
	state    entryState
	rec      *PageRecord // the fetch record, once done
}

func (e *entry) encode() []byte {
	b := make([]byte, 0, 24+len(e.url)+len(e.referrer)+len(e.worker))
	b = append(b, recordVersion)
	b = appendString(b, e.url)
	b = appendString(b, e.referrer)
	b = binary.AppendUvarint(b, uint64(e.depth))
	b = binary.AppendUvarint(b, uint64(e.attempts))
	b = appendString(b, e.worker)
	return b
}

func decodeEntry(b []byte) (*entry, error) {
	d := newDecoder(b)
	if v := d.byte(); v != recordVersion {
		return nil, fmt.Errorf("frontier: entry version %d (want %d)", v, recordVersion)
	}
	e := &entry{
		url:      d.str(),
		referrer: d.str(),
		depth:    d.int(),
		attempts: d.int(),
		worker:   d.str(),
	}
	if d.err != nil {
		return nil, fmt.Errorf("frontier: bad entry: %w", d.err)
	}
	return e, nil
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// strLen is the length of appendString's encoding of s.
func strLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

// decoder reads a value's fields in order. Its strings are slices of
// s, one copy of the whole input, so a decoded value never aliases the
// caller's bytes however many strings it holds.
type decoder struct {
	b   []byte // the bytes not yet read
	s   string // the whole input
	err error
}

func newDecoder(b []byte) *decoder { return &decoder{b: b, s: string(b)} }

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) == 0 {
		d.err = fmt.Errorf("truncated")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = fmt.Errorf("truncated uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// bounded reads a uvarint no larger than max.
func (d *decoder) bounded(max uint64) uint64 {
	v := d.uvarint()
	if v > max {
		d.err = fmt.Errorf("uvarint %d overflows its field", v)
		return 0
	}
	return v
}

// int reads a uvarint into a non-negative int. Without the bound a huge
// depth would wrap negative and pass every depth <= MaxDepth check.
func (d *decoder) int() int { return int(d.bounded(math.MaxInt)) }

func (d *decoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)) {
		d.err = fmt.Errorf("truncated string of %d bytes", n)
		return ""
	}
	off := len(d.s) - len(d.b)
	d.b = d.b[n:]
	return d.s[off : off+int(n)]
}
