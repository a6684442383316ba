package units

import (
	"testing"
	"time"
)

func TestBytesFormatting(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{0, "0 B"},
		{512, "512 B"},
		{KiB, "1.00 KiB"},
		{1536, "1.50 KiB"},
		{MiB, "1.00 MiB"},
		{3 * GiB / 2, "1.50 GiB"},
	}
	for _, c := range cases {
		if got := Bytes(c.in); got != c.want {
			t.Errorf("Bytes(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestPagesFor(t *testing.T) {
	cases := []struct {
		in   int64
		want int64
	}{
		{0, 0}, {-5, 0}, {1, 1}, {PageSize, 1}, {PageSize + 1, 2}, {10 * PageSize, 10},
	}
	for _, c := range cases {
		if got := PagesFor(c.in); got != c.want {
			t.Errorf("PagesFor(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestPageFloorIndex(t *testing.T) {
	if PageIndex(PageSize*7+5) != 7 {
		t.Errorf("PageIndex: got %d", PageIndex(PageSize*7+5))
	}
}

func TestRegionPageRelationship(t *testing.T) {
	if RegionSize%PageSize != 0 {
		t.Fatal("region size must be page aligned")
	}
}

func TestTransferTime(t *testing.T) {
	// 1 MB at 1 MB/s = 1 s.
	got := TransferTime(1e6, 1e6)
	if got != time.Second {
		t.Errorf("TransferTime = %v, want 1s", got)
	}
	if TransferTime(0, 1e6) != 0 || TransferTime(100, 0) != 0 {
		t.Error("degenerate TransferTime should be zero")
	}
	// The paper's 452x DRAM/swap gap should be reflected.
	dram := TransferTime(PageSize, 9182.7e6)
	swap := TransferTime(PageSize, 20.3e6)
	ratio := float64(swap) / float64(dram)
	if ratio < 400 || ratio > 500 {
		t.Errorf("DRAM/swap page-transfer ratio = %.0f, want ~452", ratio)
	}
}
