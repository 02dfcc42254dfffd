package simnet

import (
	"encoding/binary"
	"fmt"
	"io"
)

// The frame codec as it stood before the buffered reader and the vectored
// writer replaced it, kept verbatim as the oracle: a node running this
// code and a node running tcp.go must read each other's frames
// (TestFrameCodec, FuzzFrameStream).

func encodeFrame(sender string, payload []byte) []byte {
	frame := make([]byte, 0, 2+len(sender)+4+len(payload))
	frame = binary.BigEndian.AppendUint16(frame, uint16(len(sender)))
	frame = append(frame, sender...)
	frame = binary.BigEndian.AppendUint32(frame, uint32(len(payload)))
	frame = append(frame, payload...)
	return frame
}

func readFrame(r io.Reader) (string, []byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:2]); err != nil {
		return "", nil, err
	}
	addrLen := binary.BigEndian.Uint16(lenBuf[:2])
	addr := make([]byte, addrLen)
	if _, err := io.ReadFull(r, addr); err != nil {
		return "", nil, err
	}
	if _, err := io.ReadFull(r, lenBuf[:4]); err != nil {
		return "", nil, err
	}
	payloadLen := binary.BigEndian.Uint32(lenBuf[:4])
	if payloadLen > maxFrame {
		return "", nil, fmt.Errorf("simnet: frame of %d bytes exceeds limit", payloadLen)
	}
	payload := make([]byte, payloadLen)
	if _, err := io.ReadFull(r, payload); err != nil {
		return "", nil, err
	}
	return string(addr), payload, nil
}
