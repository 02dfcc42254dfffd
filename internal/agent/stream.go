package agent

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"tax/internal/briefcase"
	"tax/internal/firewall"
)

// §4 lists "combinations of streamed, group and/or location independent
// communication" among the support itinerant agents may need. This file
// provides the streamed part: a large byte payload travels as a sequence
// of chunk briefcases and is reassembled at the receiver, tolerating
// reordering. (Group and location-independent communication live in the
// wrapper package.)

// Stream protocol folders.
const (
	// FolderStreamID names the stream a chunk belongs to.
	FolderStreamID = "_STREAMID"
	// FolderStreamSeq is the chunk's 0-based sequence number.
	FolderStreamSeq = "_STREAMSEQ"
	// FolderStreamTotal is the total chunk count (on every chunk).
	FolderStreamTotal = "_STREAMTOTAL"
	// FolderStreamData carries the chunk bytes.
	FolderStreamData = "_STREAMDATA"
)

// DefaultChunkSize is the stream chunk size when none is given (64 KiB —
// a briefcase-friendly unit well under the frame limits).
const DefaultChunkSize = 64 << 10

// ErrStreamCorrupt is returned when reassembly sees inconsistent chunks.
var ErrStreamCorrupt = errors.New("agent: stream corrupt")

// SendStream ships data to the target as a sequence of chunk briefcases
// under the given stream id. A zero chunkSize uses DefaultChunkSize.
// Empty payloads send a single empty chunk so the receiver completes.
func SendStream(c *Context, target, streamID string, data []byte, chunkSize int) error {
	return SendStreamContext(context.Background(), c, target, streamID, data, chunkSize)
}

// SendStreamContext is SendStream with cancellation: the context is
// checked between chunks, so a large transfer stops promptly when the
// caller gives up instead of pushing the remaining chunks into the
// firewall.
func SendStreamContext(ctx context.Context, c *Context, target, streamID string, data []byte, chunkSize int) error {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	total := (len(data) + chunkSize - 1) / chunkSize
	if total == 0 {
		total = 1
	}
	for seq := 0; seq < total; seq++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("agent: stream %s chunk %d: %w", streamID, seq, err)
		}
		lo := seq * chunkSize
		hi := lo + chunkSize
		if hi > len(data) {
			hi = len(data)
		}
		bc := briefcase.New()
		bc.SetString(FolderStreamID, streamID)
		bc.SetInt(FolderStreamSeq, int64(seq))
		bc.SetInt(FolderStreamTotal, int64(total))
		bc.Ensure(FolderStreamData).Append(data[lo:hi])
		if err := c.ActivateCtx(ctx, target, bc); err != nil {
			return fmt.Errorf("agent: stream %s chunk %d: %w", streamID, seq, err)
		}
	}
	return nil
}

// StreamBuffer reassembles one stream's chunks; it tolerates arrival in
// any order and detects inconsistent totals and duplicate payload
// mismatches.
type StreamBuffer struct {
	id     string
	total  int
	chunks map[int][]byte
}

// NewStreamBuffer starts reassembly for the given stream id.
func NewStreamBuffer(id string) *StreamBuffer {
	return &StreamBuffer{id: id, chunks: make(map[int][]byte)}
}

// Feed offers a received briefcase to the buffer. It reports whether the
// briefcase belonged to this stream, and whether the stream is complete.
func (b *StreamBuffer) Feed(bc *briefcase.Briefcase) (mine bool, done bool, err error) {
	id, ok := bc.GetString(FolderStreamID)
	if !ok || id != b.id {
		return false, false, nil
	}
	seq64, ok := bc.GetInt(FolderStreamSeq)
	if !ok {
		return true, false, fmt.Errorf("%w: chunk without sequence", ErrStreamCorrupt)
	}
	total64, ok := bc.GetInt(FolderStreamTotal)
	if !ok || total64 <= 0 {
		return true, false, fmt.Errorf("%w: chunk without total", ErrStreamCorrupt)
	}
	if b.total == 0 {
		b.total = int(total64)
	} else if b.total != int(total64) {
		return true, false, fmt.Errorf("%w: totals disagree (%d vs %d)", ErrStreamCorrupt, b.total, total64)
	}
	seq := int(seq64)
	if seq < 0 || seq >= b.total {
		return true, false, fmt.Errorf("%w: sequence %d of %d", ErrStreamCorrupt, seq, b.total)
	}
	f, err2 := bc.Folder(FolderStreamData)
	if err2 != nil || f.Len() == 0 {
		return true, false, fmt.Errorf("%w: chunk without data", ErrStreamCorrupt)
	}
	data, err2 := f.Element(0)
	if err2 != nil {
		return true, false, err2
	}
	if _, dup := b.chunks[seq]; !dup {
		b.chunks[seq] = data
	}
	return true, len(b.chunks) == b.total, nil
}

// Bytes concatenates the reassembled payload; call only once Feed
// reported done.
func (b *StreamBuffer) Bytes() ([]byte, error) {
	if b.total == 0 || len(b.chunks) != b.total {
		return nil, fmt.Errorf("%w: %d of %d chunks", ErrStreamCorrupt, len(b.chunks), b.total)
	}
	seqs := make([]int, 0, b.total)
	for s := range b.chunks {
		seqs = append(seqs, s)
	}
	sort.Ints(seqs)
	var out []byte
	for _, s := range seqs {
		out = append(out, b.chunks[s]...)
	}
	return out, nil
}

// ReceiveStreamCtx blocks until the named stream completes, buffering
// unrelated briefcases for later Await calls, or until ctx is done. A
// zero timeout waits forever.
func (c *Context) ReceiveStreamCtx(ctx context.Context, streamID string, timeout time.Duration) ([]byte, error) {
	buf := NewStreamBuffer(streamID)
	deadline := deadlineAfter(timeout)
	for {
		bc, err := c.receive(ctx, deadline)
		if errors.Is(err, firewall.ErrRecvTimeout) {
			return nil, fmt.Errorf("agent: stream %s: %w", streamID, firewall.ErrRecvTimeout)
		} else if err != nil {
			return nil, err
		}
		mine, done, err := buf.Feed(bc)
		if err != nil {
			return nil, err
		}
		if !mine {
			c.backlog = append(c.backlog, bc)
			continue
		}
		if done {
			return buf.Bytes()
		}
	}
}
