package cabinet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// WAL record framing. Each record on disk is
//
//	magic  byte   0xD7 — catches "replaying into the middle of a record"
//	length uint32 LE — payload length
//	crc    uint32 LE — CRC-32 (IEEE) of the payload
//	payload
//
// Appends are not individually synced; the store decides when to fsync.
// A crash can therefore leave the log ending in a torn frame (header or
// payload cut short) or, with torn sector writes, a frame whose bytes
// are partially garbage. Replay treats the first frame that fails any
// check as the end of the log: everything before it is the durable
// history, everything from it on is the write that never committed.

const (
	walMagic      = 0xD7
	walHeaderSize = 1 + 4 + 4
	// walMaxRecord bounds a single record payload; a length field beyond
	// it is treated as corruption rather than an allocation request.
	walMaxRecord = 16 << 20
)

// ErrWALCorrupt reports a frame that is structurally complete but fails
// validation (bad magic, oversized length, CRC mismatch).
var ErrWALCorrupt = errors.New("cabinet: corrupt WAL frame")

// ErrWALTorn reports a frame cut short by the end of the log — the
// signature of a crash mid-append.
var ErrWALTorn = errors.New("cabinet: torn WAL frame")

// putFrameHeader fills hdr, the walHeaderSize bytes in front of payload,
// so the two together are one framed record.
func putFrameHeader(hdr, payload []byte) {
	hdr[0] = walMagic
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[5:9], crc32.ChecksumIEEE(payload))
}

// decodeFrame decodes the first frame in b, returning the payload and
// the number of bytes consumed. ErrWALTorn means b ends inside the
// frame; ErrWALCorrupt means the frame is complete but invalid.
func decodeFrame(b []byte) (payload []byte, n int, err error) {
	if len(b) < walHeaderSize {
		return nil, 0, ErrWALTorn
	}
	if b[0] != walMagic {
		return nil, 0, fmt.Errorf("%w: bad magic 0x%02x", ErrWALCorrupt, b[0])
	}
	length := binary.LittleEndian.Uint32(b[1:5])
	if length > walMaxRecord {
		return nil, 0, fmt.Errorf("%w: length %d exceeds limit", ErrWALCorrupt, length)
	}
	end := walHeaderSize + int(length)
	if len(b) < end {
		return nil, 0, ErrWALTorn
	}
	payload = b[walHeaderSize:end]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[5:9]) {
		return nil, 0, fmt.Errorf("%w: CRC mismatch", ErrWALCorrupt)
	}
	return payload, end, nil
}

// ReplayWAL walks the framed records in b, calling fn for each valid
// payload in order. It stops at the first torn or corrupt frame — the
// log-end convention — and returns the number of bytes of valid prefix
// consumed plus the reason replay stopped (nil when the log ends
// cleanly). fn returning an error aborts the walk with that error.
func ReplayWAL(b []byte, fn func(payload []byte) error) (int, error) {
	off := 0
	for off < len(b) {
		payload, n, err := decodeFrame(b[off:])
		if err != nil {
			if errors.Is(err, ErrWALTorn) || errors.Is(err, ErrWALCorrupt) {
				return off, err
			}
			return off, err
		}
		if err := fn(payload); err != nil {
			return off, err
		}
		off += n
	}
	return off, nil
}
