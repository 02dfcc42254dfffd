package cabinet

import (
	"errors"
	"testing"

	"tax/internal/vclock"
)

func mustAppend(t *testing.T, d *Disk, name, content string) {
	t.Helper()
	if err := d.Append(name, []byte(content)); err != nil {
		t.Fatal(err)
	}
}

func mustSync(t *testing.T, d *Disk, name string) {
	t.Helper()
	if err := d.Sync(name); err != nil {
		t.Fatal(err)
	}
}

func TestDiskCrashKeepsDurablePlusTornBytes(t *testing.T) {
	for _, tc := range []struct {
		keep int
		want string
	}{
		{0, "durable"},
		{3, "durable+ta"},
		{5, "durable+tail"},
		{99, "durable+tail"}, // clamped to the unsynced tail
	} {
		d := NewDisk(DiskConfig{Clock: vclock.NewVirtual()})
		mustAppend(t, d, "f", "durable")
		mustSync(t, d, "f")
		mustAppend(t, d, "f", "+tail")
		mustAppend(t, d, "other", "never synced")
		d.Crash(TornWrite{File: "f", Keep: tc.keep})
		if err := d.Append("f", []byte("x")); !errors.Is(err, ErrCrashed) {
			t.Fatalf("append on a crashed disk = %v, want ErrCrashed", err)
		}
		d.Reopen()
		live, err := d.ReadFile("f")
		durable, ok := d.DurableBytes("f")
		if err != nil || !ok || string(live) != tc.want || string(durable) != tc.want {
			t.Errorf("keep %d: live %q (%v) durable %q (%v), want %q", tc.keep, live, err, durable, ok, tc.want)
		}
		if other, _ := d.ReadFile("other"); len(other) != 0 {
			t.Errorf("keep %d: unsynced file survived as %q", tc.keep, other)
		}
		// The torn bytes are on the platter now: a second crash keeps them.
		mustAppend(t, d, "f", "+more")
		d.Crash()
		d.Reopen()
		if live, _ := d.ReadFile("f"); string(live) != tc.want {
			t.Errorf("keep %d: after a second crash %q, want %q", tc.keep, live, tc.want)
		}
	}
}

// TestDiskReadsAreCopies pins the contract the length-based durable
// prefix leans on: the file's buffer is reused across Truncate and cut
// in place by Crash, so nothing handed to a caller may alias it.
func TestDiskReadsAreCopies(t *testing.T) {
	d := NewDisk(DiskConfig{Clock: vclock.NewVirtual()})
	mustAppend(t, d, "f", "0123456789")
	mustSync(t, d, "f")
	mustAppend(t, d, "f", "abcdef")
	live, _ := d.ReadFile("f")
	durable, _ := d.DurableBytes("f")
	check := func(after string) {
		t.Helper()
		if string(live) != "0123456789abcdef" || string(durable) != "0123456789" {
			t.Fatalf("after %s: earlier reads changed to %q / %q", after, live, durable)
		}
	}

	mustAppend(t, d, "f", "ghi")
	check("Append")
	if err := d.Truncate("f"); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, d, "f", "ZZZZZZZZZZZZZZZZZZZ") // refills the kept buffer
	check("Truncate+Append")
	if got, ok := d.DurableBytes("f"); !ok || len(got) != 0 {
		t.Fatalf("durable content after Truncate = %q, want empty", got)
	}
	mustSync(t, d, "f")
	mustAppend(t, d, "f", "tail")
	d.Crash(TornWrite{File: "f", Keep: 2})
	d.Reopen()
	mustAppend(t, d, "f", "YYYY")
	check("Crash+Append")
	if got, _ := d.ReadFile("f"); string(got) != "ZZZZZZZZZZZZZZZZZZZtaYYYY" {
		t.Fatalf("file after torn crash and append = %q", got)
	}
}

func TestDiskTruncateKeepsBuffer(t *testing.T) {
	d := NewDisk(DiskConfig{Clock: vclock.NewVirtual()})
	mustAppend(t, d, "wal", string(make([]byte, 4096)))
	before := cap(d.files["wal"].live)
	if err := d.Truncate("wal"); err != nil {
		t.Fatal(err)
	}
	if got := cap(d.files["wal"].live); got != before {
		t.Fatalf("Truncate changed the buffer's capacity from %d to %d", before, got)
	}
	if got := testing.AllocsPerRun(10, func() {
		_ = d.Append("wal", make([]byte, 512))
		_ = d.Truncate("wal")
	}); got != 0 {
		t.Fatalf("truncate-and-refill allocates %v times, want 0", got)
	}
}

func TestDiskSyncAllocatesNothing(t *testing.T) {
	clock := vclock.NewVirtual()
	d := NewDisk(DiskConfig{Clock: clock})
	mustAppend(t, d, "f", string(make([]byte, 64<<10)))
	mustSync(t, d, "f")
	if got := testing.AllocsPerRun(100, func() { _ = d.Sync("f") }); got != 0 {
		t.Fatalf("Sync of an unchanged file allocates %v times, want 0", got)
	}
	// ... and neither does the sync that makes a fresh tail durable.
	if got := testing.AllocsPerRun(100, func() {
		f := d.files["f"]
		f.durable = 0
		_ = d.Sync("f")
	}); got != 0 {
		t.Fatalf("Sync of 64 KiB of new bytes allocates %v times, want 0", got)
	}
	if got, want := d.Syncs(), int64(1+2*101); got != want {
		t.Fatalf("Syncs = %d, want %d", got, want)
	}
	if got, want := clock.Now(), DefaultSyncLatency*(1+2*101); got != want {
		t.Fatalf("clock = %v, want %v: every fsync is still charged", got, want)
	}
}

// TestDiskReplaceIsTruncateThenAppend holds the one-step snapshot write to
// the two steps it replaced: nothing durable, the new content in the page
// cache, and no effect on a crashed disk.
func TestDiskReplaceIsTruncateThenAppend(t *testing.T) {
	d := NewDisk(DiskConfig{Clock: vclock.NewVirtual()})
	mustAppend(t, d, "snap.tmp", "stale image")
	mustSync(t, d, "snap.tmp")
	if err := d.replace("snap.tmp", []byte("new image")); err != nil {
		t.Fatal(err)
	}
	if live, _ := d.ReadFile("snap.tmp"); string(live) != "new image" {
		t.Fatalf("live content = %q, want the new image", live)
	}
	if durable, ok := d.DurableBytes("snap.tmp"); !ok || len(durable) != 0 {
		t.Fatalf("durable content = %q, want empty until Sync", durable)
	}
	mustSync(t, d, "snap.tmp")
	d.Crash()
	if err := d.replace("snap.tmp", []byte("late")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("replace on a crashed disk = %v, want ErrCrashed", err)
	}
	d.Reopen()
	if live, _ := d.ReadFile("snap.tmp"); string(live) != "new image" {
		t.Fatalf("after crash = %q, want the synced image", live)
	}
	if err := d.replace("fresh", []byte("x")); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	d.Reopen()
	if live, err := d.ReadFile("fresh"); err != nil || len(live) != 0 {
		t.Fatalf("unsynced replace survived a crash as %q (%v)", live, err)
	}
}
