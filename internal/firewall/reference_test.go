package firewall

import "encoding/binary"

// The batch container assembly as it stood before the link queue became
// the container, kept verbatim as the oracle: the queue appended each
// frame as (uvarint length, bytes), and flushLocked copied the queue
// behind a freshly built header. The in-place header must produce the
// same bytes (TestBatchContainerReference, FuzzBatchContainer).

func referenceQueue(body, frame []byte) []byte {
	body = binary.AppendUvarint(body, uint64(len(frame)))
	body = append(body, frame...)
	return body
}

func referenceContainer(frames int, body []byte) []byte {
	container := make([]byte, 0, len(batchMagic)+2+binary.MaxVarintLen64+len(body))
	container = append(container, batchMagic[:]...)
	container = binary.AppendUvarint(container, batchVersion)
	container = binary.AppendUvarint(container, uint64(frames))
	container = append(container, body...)
	return container
}
