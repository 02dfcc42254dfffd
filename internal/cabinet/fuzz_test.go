package cabinet

import (
	"bytes"
	"fmt"
	"maps"
	"testing"

	"tax/internal/vclock"
)

// walSeedFrames is the corpus the fuzzer mutates from: clean multi-record
// logs, the torn tails a crash produces (every interesting truncation
// point), and bit-flipped frames mirroring the disk-corruption shapes the
// fault injector generates.
func walSeedFrames() [][]byte {
	var logs [][]byte

	logs = append(logs, nil) // empty log

	one := appendFrame(nil, encodeTxn(1, []Op{{Key: "k", Value: []byte("v")}}))
	logs = append(logs, one)

	multi := appendFrame(nil, encodeTxn(1, []Op{{Key: "a", Value: []byte("1")}}))
	multi = appendFrame(multi, encodeTxn(2, []Op{{Del: true, Key: "a"}}))
	multi = appendFrame(multi, encodeTxn(3, []Op{
		{Key: "b", Value: bytes.Repeat([]byte{0xAB}, 100)},
		{Key: "c", Value: nil},
	}))
	logs = append(logs, multi)

	// Torn tails: cut inside the last header, inside the last payload,
	// and right at a frame boundary.
	logs = append(logs,
		multi[:len(multi)-1],
		multi[:len(one)+3],
		multi[:len(one)],
	)

	// Bit flips: magic, length field, CRC field, payload.
	for _, at := range []int{0, 2, 6, len(one) + 12} {
		damaged := append([]byte(nil), multi...)
		damaged[at] ^= 0x5A
		logs = append(logs, damaged)
	}

	// A frame whose length field claims far more than the log holds.
	bogus := append([]byte(nil), one...)
	bogus[3] = 0xFF
	logs = append(logs, bogus)

	return logs
}

// FuzzWALDecode drives the WAL replay path with arbitrary logs: it must
// never panic, the valid prefix it accepts must itself replay to the
// identical payload sequence (replay is a fixpoint on accepted
// prefixes), and re-framing the accepted payloads must reproduce the
// accepted bytes exactly.
func FuzzWALDecode(f *testing.F) {
	for _, log := range walSeedFrames() {
		f.Add(log)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var payloads [][]byte
		valid, err := ReplayWAL(data, func(p []byte) error {
			payloads = append(payloads, append([]byte(nil), p...))
			return nil
		})
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid prefix %d outside [0,%d]", valid, len(data))
		}
		if err == nil && valid != len(data) {
			t.Fatalf("clean replay consumed %d of %d bytes", valid, len(data))
		}

		// Replaying the accepted prefix alone must yield the same
		// payloads and consume every byte.
		var again [][]byte
		n, err := ReplayWAL(data[:valid], func(p []byte) error {
			again = append(again, append([]byte(nil), p...))
			return nil
		})
		if err != nil || n != valid {
			t.Fatalf("accepted prefix re-replay: n=%d err=%v, want %d, nil", n, err, valid)
		}
		if len(again) != len(payloads) {
			t.Fatalf("re-replay yielded %d records, want %d", len(again), len(payloads))
		}

		// Re-framing the payloads must reconstruct the accepted bytes:
		// framing is injective on what replay accepts.
		var reframed []byte
		for i, p := range payloads {
			if !bytes.Equal(p, again[i]) {
				t.Fatal("re-replay changed a payload")
			}
			reframed = appendFrame(reframed, p)
		}
		if !bytes.Equal(reframed, data[:valid]) {
			t.Fatal("re-framing accepted payloads differs from accepted prefix")
		}

		// Recovery must be total: whatever the bytes, RecoverBytes
		// returns a usable table. Feed the data as both WAL and snapshot.
		if _, _, err := RecoverBytes(nil, data); err != nil {
			t.Fatalf("RecoverBytes(wal) = %v", err)
		}
		if _, _, err := RecoverBytes(data, data[:valid]); err != nil {
			t.Fatalf("RecoverBytes(snap, wal) = %v", err)
		}
	})
}

// FuzzSnapshotImage drives the store with fuzzed op sequences — three
// bytes an op: what to do, which key, how long a value — snapshotting
// whenever the input says so, so the sorted-list merge sees additions,
// deletions and re-additions in every order. Each image must equal the
// reference encoder's byte for byte and decode back to the table; a
// damaged or truncated image must never panic and must fall back to the
// empty table.
func FuzzSnapshotImage(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 1, 9, 4, 2, 200, 2, 0, 0, 0, 1, 0, 4, 1, 3, 2, 0, 0})          // put, put, snap, del, re-add, snap
	f.Add([]byte{4, 250, 64, 3, 7, 1, 0, 7, 0, 3, 7, 2, 4, 7, 3, 2, 0, 0, 0, 250}) // long key, unsynced puts, trailing byte
	f.Add([]byte{5, 3, 0, 2, 0, 0, 0, 3, 0, 2, 0, 0, 5, 3, 255, 2, 0, 0})          // empty value; snapshot of an emptied table
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewStore(Options{Clock: vclock.NewVirtual(), SnapshotEvery: 8})
		model := map[string][]byte{}
		ops := 0
		snapshot := func() {
			if err := s.Snapshot(); err != nil {
				t.Fatal(err)
			}
			image, _ := s.Disk().DurableBytes(snapFile)
			if want := encodeSnapshot(s.Seq(), model); !bytes.Equal(image, want) {
				t.Fatalf("after %d ops: image (%d bytes) differs from the reference encoder's (%d bytes)",
					ops, len(image), len(want))
			}
			table, seq := decodeSnapshot(image)
			if seq != s.Seq() || !maps.EqualFunc(table, model, bytes.Equal) {
				t.Fatalf("after %d ops: image decodes to %d entries at seq %d, want %d at %d",
					ops, len(table), seq, len(model), s.Seq())
			}
			if len(data) == 0 {
				return
			}
			// Any single damaged byte fails the CRC (or the magic), and so
			// does any cut.
			at := (int(data[0]) * 131) % len(image)
			damaged := append([]byte(nil), image...)
			damaged[at] ^= data[0] | 1
			for _, bad := range [][]byte{damaged, image[:at], image[:len(image)-1]} {
				if table, seq := decodeSnapshot(bad); len(table) != 0 || seq != 0 {
					t.Fatalf("damaged image decoded to %d entries at seq %d", len(table), seq)
				}
			}
		}
		for ; len(data) >= 3; data, ops = data[3:], ops+1 {
			what, k, v := data[0], data[1], data[2]
			key := fmt.Sprintf("k/%02d", k%32)
			if k >= 240 {
				key = fmt.Sprintf("long/%0150d", k)
			}
			var op Op
			switch what % 8 {
			case 0, 1:
				op = Op{Del: true, Key: key}
				delete(model, key)
			case 2:
				snapshot()
				continue
			default:
				op = Op{Key: key, Value: bytes.Repeat([]byte{v}, 2*int(v))}
				model[key] = op.Value
			}
			commit := s.Commit
			if what%8 == 3 {
				commit = s.CommitNoSync
			}
			if err := commit([]Op{op}); err != nil {
				t.Fatal(err)
			}
		}
		snapshot()
	})
}
