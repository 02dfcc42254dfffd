package uri

import "tax/internal/intern"

// Every message names its target and its sender by address, and the
// same few addresses recur on every message of a conversation, so each
// is parsed once per process, not once per read. ParseBytes and
// ParseString look an address up in one process-wide intern.Table and
// call Parse only on a miss; internal/intern documents the table's hit
// path, its second-sighting admission and its bounds.

// Addr is an address with its parse. Text and every string in URI are
// the caller's own, or, for an interned address, the table's: they never
// alias the bytes ParseBytes was given.
type Addr struct {
	Text string
	URI  URI

	// raw is Text's bytes when the address is interned: the table's own
	// copy, immutable. Nil otherwise.
	raw []byte
}

// Bytes returns the address as bytes. An interned address returns the
// table's immutable copy, which a briefcase may alias (Folder.AppendAlias)
// and nobody may modify; any other returns a fresh copy.
func (a Addr) Bytes() []byte {
	if a.raw != nil {
		return a.raw
	}
	return []byte(a.Text)
}

// ParseBytes is Parse of string(b) through the intern table. b is read,
// never retained: the result does not alias it.
func ParseBytes(b []byte) (Addr, error) { return table.Bytes(b) }

// ParseString is Parse of s through the intern table.
func ParseString(s string) (Addr, error) { return table.String(s) }

// table is the process-wide address table.
var table = newTable()

func newTable() *intern.Table[Addr] { return intern.New(parseAddr) }

// parseAddr is the table's build function. An address the table keeps
// carries its bytes as well, so a writer can alias them.
func parseAddr(text string, kept bool) (Addr, error) {
	u, err := Parse(text)
	a := Addr{Text: text, URI: u}
	if kept {
		a.raw = []byte(text)
	}
	return a, err
}
