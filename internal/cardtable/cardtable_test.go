package cardtable

import (
	"testing"
	"testing/quick"

	"fleetsim/internal/units"
)

func TestMarkAndScan(t *testing.T) {
	ct := New(64 * units.KiB)
	ct.MarkDirty(0)
	ct.MarkDirty(1025) // second card
	ct.MarkDirty(1030) // same card, no double count
	if ct.DirtyCards() != 2 {
		t.Errorf("dirty = %d, want 2", ct.DirtyCards())
	}
	var ranges [][2]int64
	ct.ScanDirty(true, func(start, size int64) { ranges = append(ranges, [2]int64{start, size}) })
	if len(ranges) != 2 {
		t.Fatalf("scanned %d ranges", len(ranges))
	}
	if ranges[0] != [2]int64{0, 1024} || ranges[1] != [2]int64{1024, 1024} {
		t.Errorf("ranges = %v", ranges)
	}
	if ct.DirtyCards() != 0 {
		t.Error("scan with clear must reset cards")
	}
}

func TestScanWithoutClear(t *testing.T) {
	ct := New(64 * units.KiB)
	ct.MarkDirty(5000)
	n := 0
	ct.ScanDirty(false, func(start, size int64) { n++ })
	ct.ScanDirty(false, func(start, size int64) { n++ })
	if n != 2 {
		t.Errorf("scan without clear visited %d, want 2", n)
	}
}

func TestIsDirty(t *testing.T) {
	ct := New(64 * units.KiB)
	ct.MarkDirty(2048)
	if !ct.IsDirty(2048) || !ct.IsDirty(2048+1023) {
		t.Error("card should be dirty across its whole range")
	}
	if ct.IsDirty(1024) {
		t.Error("neighbouring card should be clean")
	}
	// Addresses beyond the table are clean, not a crash.
	if ct.IsDirty(1 << 40) {
		t.Error("far address should be clean")
	}
}

func TestGrowsOnDemand(t *testing.T) {
	ct := New(units.KiB) // one card
	ct.MarkDirty(100 * units.KiB)
	if !ct.IsDirty(100 * units.KiB) {
		t.Error("table must grow to cover new heap space")
	}
}

func TestClear(t *testing.T) {
	ct := New(64 * units.KiB)
	for i := int64(0); i < 10; i++ {
		ct.MarkDirty(i * 1024)
	}
	ct.Clear()
	if ct.DirtyCards() != 0 {
		t.Errorf("dirty after clear = %d", ct.DirtyCards())
	}
}

func TestCardFor(t *testing.T) {
	ct := New(64 * units.KiB)
	start, size := ct.CardFor(2500)
	if start != 2048 || size != 1024 {
		t.Errorf("CardFor(2500) = (%d,%d)", start, size)
	}
}

func TestPaperMemoryOverhead(t *testing.T) {
	// §7.3: "an additional card table fixed at 4 MB ... proportional to the
	// 4 GB heap size."
	if got := DefaultTableBytes(); got != 4*units.MiB {
		t.Errorf("card table for 4GiB heap at shift 10 = %s, want 4 MiB", units.Bytes(got))
	}
}

func TestTableBytesForHeapRounding(t *testing.T) {
	if got := TableBytesForHeap(1025); got != 2 {
		t.Errorf("TableBytesForHeap(1025) = %d, want 2", got)
	}
	if got := TableBytesForHeap(1024); got != 1 {
		t.Errorf("TableBytesForHeap(1024) = %d, want 1", got)
	}
}

// Property: marking any set of addresses dirties exactly the distinct cards,
// and scanning visits each exactly once with the covering range.
func TestScanCoversMarkedAddresses(t *testing.T) {
	f := func(addrsRaw []uint32) bool {
		ct := New(units.MiB)
		want := map[int64]bool{}
		for _, a := range addrsRaw {
			addr := int64(a % (8 * 1024 * 1024))
			ct.MarkDirty(addr)
			want[addr>>10] = true
		}
		got := map[int64]bool{}
		ct.ScanDirty(true, func(start, size int64) {
			if size != 1024 {
				t.Fatalf("bad card size %d", size)
			}
			if got[start>>10] {
				t.Fatal("card visited twice")
			}
			got[start>>10] = true
		})
		if len(got) != len(want) {
			return false
		}
		for c := range want {
			if !got[c] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
