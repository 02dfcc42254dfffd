package cabinet

import (
	"encoding/binary"
	"hash/crc32"
	"sort"
)

// The reference encoders: the straightforward, allocate-as-you-go code the
// store shipped with before its write path was made to cost what it
// writes. They stay here, untouched, as the oracle the differential test
// and the fuzzers hold the store's bytes to: whatever the store puts on
// its disk must be exactly what these would have produced.

// encodeSnapshot is the reference snapshot encoder: collect every key,
// sort them all, append entry by entry.
func encodeSnapshot(seq uint64, table map[string][]byte) []byte {
	buf := append([]byte(nil), snapMagic...)
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], seq)
	buf = append(buf, tmp[:]...)
	keys := make([]string, 0, len(table))
	for k := range table {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	for _, k := range keys {
		buf = binary.AppendUvarint(buf, uint64(len(k)))
		buf = append(buf, k...)
		buf = binary.AppendUvarint(buf, uint64(len(table[k])))
		buf = append(buf, table[k]...)
	}
	binary.LittleEndian.PutUint32(tmp[:4], crc32.ChecksumIEEE(buf))
	return append(buf, tmp[:4]...)
}

// encodeTxn is the reference transaction payload encoder.
func encodeTxn(seq uint64, ops []Op) []byte {
	var buf []byte
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], seq)
	buf = append(buf, tmp[:]...)
	buf = binary.AppendUvarint(buf, uint64(len(ops)))
	for _, op := range ops {
		if op.Del {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.AppendUvarint(buf, uint64(len(op.Key)))
		buf = append(buf, op.Key...)
		if !op.Del {
			buf = binary.AppendUvarint(buf, uint64(len(op.Value)))
			buf = append(buf, op.Value...)
		}
	}
	return buf
}

// appendFrame is the reference WAL framing: it appends one framed record
// to buf and returns the result.
func appendFrame(buf, payload []byte) []byte {
	var hdr [walHeaderSize]byte
	hdr[0] = walMagic
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[5:9], crc32.ChecksumIEEE(payload))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}
