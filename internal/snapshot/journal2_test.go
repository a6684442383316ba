package snapshot

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fleetsim/internal/fsio"
)

type kv struct {
	Name  string
	Count int
}

// buildJournal writes a v2 journal with n cells and returns its path and
// raw bytes.
func buildJournal(t *testing.T, n int) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "j.journal")
	st, err := Open(path, "matrix")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := st.Put(fmt.Sprintf("cell/%03d", i), kv{Name: fmt.Sprintf("cell/%03d", i), Count: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

// A legacy v1 JSONL journal is not read: Open keeps every byte of it in
// the quarantine file as a corrupt tail at offset 0 and starts an empty v2
// journal, so nothing resumes.
func TestV1JournalQuarantined(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.jsonl")
	v1 := []byte(`{"campaign":"legacy"}
{"cell":"a","data":{"Name":"a","Count":1}}
{"cell":"b","data":{"Name":"b","Count":2}}
{"cell":"torn","data":{"Na`)
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	res := InspectBytes(v1)
	if res.TailReason != TailCorrupt || res.TailOffset != 0 || res.TailBytes != int64(len(v1)) || len(res.Keys) != 0 {
		t.Fatalf("InspectBytes(v1) = %s, want a corrupt tail of every byte at 0", res)
	}
	st, err := Open(path, "legacy")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Resumed() != 0 || st.Len() != 0 {
		t.Fatalf("Resumed = %d, Len = %d, want an empty store", st.Resumed(), st.Len())
	}
	q, ok := st.Quarantined()
	if !ok || q.Reason != TailCorrupt || q.Offset != 0 || q.Bytes != int64(len(v1)) {
		t.Fatalf("Quarantined = %+v, %v", q, ok)
	}
	kept, err := os.ReadFile(q.Path)
	if err != nil || !bytes.Equal(kept, v1) {
		t.Fatalf("quarantine holds %q (err %v), want the original v1 bytes", kept, err)
	}
	data, _ := os.ReadFile(path)
	if res := InspectBytes(data); res.Version != 2 || res.Campaign != "legacy" || res.TailReason != "" || len(res.Keys) != 0 {
		t.Fatalf("journal after Open: %s, want an empty clean v2 journal", res)
	}
}

// The resume rewrite must be atomic: crash it at every byte and the
// pre-existing journal must still replay in full afterwards. This is the
// regression test for the old `os.Create`-in-place rewrite, which lost
// the entire journal when killed mid-rewrite.
func TestRewriteCrashAtEveryByteLosesNothing(t *testing.T) {
	// A torn tail forces Open down the quarantine-and-rewrite path
	// deterministically.
	_, clean := buildJournal(t, 2)
	torn := append(clean, 0x05, 0x00, 0x00)
	for k := int64(1); k < 400; k += 7 { // every write byte offset, strided for speed
		dir := t.TempDir()
		path := filepath.Join(dir, "j.journal")
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		ff := fsio.NewFaulty(fsio.OS{}, fsio.FaultConfig{CrashAtByte: k})
		if _, err := OpenFS(ff, path, "matrix"); err == nil {
			// Crash byte beyond the rewrite size: Open succeeded, fine.
			continue
		}
		// The "machine" died mid-rewrite. The original journal must be
		// intact for the next process.
		st, err := Open(path, "matrix")
		if err != nil {
			t.Fatalf("crash@%d: reopen failed: %v", k, err)
		}
		var out kv
		if !st.Get("cell/000", &out) || !st.Get("cell/001", &out) {
			t.Fatalf("crash@%d: cells lost after interrupted rewrite", k)
		}
		st.Close()
	}
}

// A failed fsync must refuse the Put, roll back memory, and latch the
// store.
func TestPutFsyncFailureLatches(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.journal")
	// Syncs 1..N during Open (rewrite + dir syncs) succeed; fail from the
	// first append on. Open performs: tmp sync, tmp dir sync, rename dir
	// sync, lease writes none. Count them empirically: use FailSyncEvery
	// high enough to pass Open, then hit appends.
	ff := fsio.NewFaulty(fsio.OS{}, fsio.FaultConfig{})
	st, err := OpenFS(ff, path, "camp")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("ok", kv{Name: "ok", Count: 1}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Reopen with every sync failing: Open itself must fail (it cannot
	// promise the rewrite is durable)... unless the file is already clean
	// v2, in which case no rewrite happens and the append path fails.
	ff2 := fsio.NewFaulty(fsio.OS{}, fsio.FaultConfig{SyncFailProb: 1, Seed: 3})
	st2, err := OpenFS(ff2, path, "camp")
	if err != nil {
		t.Skipf("Open refused under all-syncs-fail (acceptable): %v", err)
	}
	err = st2.Put("new", kv{Name: "new", Count: 2})
	if err == nil {
		t.Fatal("Put succeeded with failing fsync")
	}
	if !errors.Is(err, fsio.ErrInjectedSync) {
		t.Fatalf("Put error %v does not wrap the injected sync failure", err)
	}
	var out kv
	if st2.Get("new", &out) {
		t.Fatal("failed Put left the cell visible in memory (ack without durability)")
	}
	// Latched: the next Put fails fast with ErrJournalFailed.
	err = st2.Put("new2", kv{Name: "new2", Count: 3})
	if !errors.Is(err, ErrJournalFailed) {
		t.Fatalf("latched store Put error = %v, want ErrJournalFailed", err)
	}
	if st2.Failed() == nil {
		t.Fatal("Failed() = nil after latch")
	}
	st2.Close()
}

// ENOSPC mid-append must refuse the Put; the torn frame must be dropped
// by the next Open with the earlier record intact.
func TestPutENOSPCTornTailRecovers(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.journal")
	st, err := Open(path, "camp")
	if err != nil {
		t.Fatal(err)
	}
	st.Put("keep", kv{Name: "keep", Count: 9})
	st.Close()

	// Budget: the faulty FS admits only the first 20 bytes written
	// through it — half of the next append frame, torn at the edge.
	ff := fsio.NewFaulty(fsio.OS{}, fsio.FaultConfig{WriteBudget: 20})
	st2, err := OpenFS(ff, path, "camp")
	if err != nil {
		t.Fatal(err)
	}
	err = st2.Put("torn", kv{Name: "torn", Count: 1})
	if !errors.Is(err, fsio.ErrNoSpace) {
		t.Fatalf("Put error = %v, want ErrNoSpace", err)
	}
	st2.Close()

	st3, err := Open(path, "camp")
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	var out kv
	if !st3.Get("keep", &out) || out.Count != 9 {
		t.Fatalf("checksummed record lost after ENOSPC: %+v", out)
	}
	if st3.Get("torn", &out) {
		t.Fatal("torn unacknowledged record resurfaced")
	}
	if q, ok := st3.Quarantined(); ok && q.Reason != TailTorn {
		t.Fatalf("tail reason = %q, want torn", q.Reason)
	}
}

// Lease epochs must be strictly monotonic across acquisitions, and a
// stale holder's fenced appends must be refused.
func TestLeaseFencing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.journal")

	a, err := Open(path, "camp")
	if err != nil {
		t.Fatal(err)
	}
	ea, err := a.AcquireLease("daemon-a")
	if err != nil {
		t.Fatal(err)
	}
	if ea != 1 {
		t.Fatalf("first epoch = %d, want 1", ea)
	}
	if err := a.PutFenced("cell/1", kv{Name: "one", Count: 1}); err != nil {
		t.Fatalf("holder's fenced put refused: %v", err)
	}

	// A restarted daemon acquires a newer epoch on the same journal.
	b, err := Open(path, "camp")
	if err != nil {
		t.Fatal(err)
	}
	eb, err := b.AcquireLease("daemon-b")
	if err != nil {
		t.Fatal(err)
	}
	if eb != ea+1 {
		t.Fatalf("second epoch = %d, want %d", eb, ea+1)
	}
	if b.Epoch() != eb {
		t.Fatalf("Epoch() = %d, want %d", b.Epoch(), eb)
	}

	// The stale holder is fenced out...
	err = a.PutFenced("cell/2", kv{Name: "two", Count: 2})
	if !errors.Is(err, ErrFenced) {
		t.Fatalf("stale put error = %v, want ErrFenced", err)
	}
	// ...and stays fenced: even unfenced Puts are latched off.
	if err := a.Put("cell/3", kv{Name: "three", Count: 3}); !errors.Is(err, ErrJournalFailed) {
		t.Fatalf("latched stale Put error = %v, want ErrJournalFailed", err)
	}
	// The new holder writes freely.
	if err := b.PutFenced("cell/2", kv{Name: "two", Count: 2}); err != nil {
		t.Fatalf("new holder's fenced put refused: %v", err)
	}
	a.Close()
	b.Close()

	// The dropped cell/2 from A never reached disk twice.
	res, err := Inspect(path)
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Duplicates(); len(d) != 0 {
		t.Fatalf("duplicate commits in journal: %v", d)
	}
}

// Byte-granular recovery matrix, truncation half: cut the journal at
// every byte offset. Open must never panic, must replay a verified
// prefix (correct contents only), and must classify the tail as torn.
func TestRecoveryMatrixTruncation(t *testing.T) {
	_, data := buildJournal(t, 8)
	for cut := 0; cut <= len(data); cut++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "j.journal")
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(path, "matrix")
		if err != nil {
			t.Fatalf("cut@%d: Open error: %v", cut, err)
		}
		// Every replayed cell must have verified, correct contents, and
		// the replayed set must be a prefix of the original commit order.
		for i := 0; i < 8; i++ {
			key := fmt.Sprintf("cell/%03d", i)
			var out kv
			if st.Get(key, &out) {
				if out.Name != key || out.Count != i {
					t.Fatalf("cut@%d: cell %s replayed with wrong contents %+v", cut, key, out)
				}
			} else {
				// Prefix property: once one cell is missing, all later
				// ones must be missing too.
				for j := i + 1; j < 8; j++ {
					var o2 kv
					if st.Get(fmt.Sprintf("cell/%03d", j), &o2) {
						t.Fatalf("cut@%d: cell %d missing but cell %d present (not a prefix)", cut, i, j)
					}
				}
				break
			}
		}
		if cut < len(data) {
			if q, ok := st.Quarantined(); ok && q.Reason == TailCorrupt {
				t.Fatalf("cut@%d: truncation classified as corruption", cut)
			}
		}
		st.Close()
	}
}

// Byte-granular recovery matrix, bit-flip half: flip one bit in every
// byte. Open must never panic, must never serve a record with wrong
// contents, must keep every record before the flipped byte, and must
// quarantine (not destroy) the tail when the flip breaks a checksum.
func TestRecoveryMatrixBitFlip(t *testing.T) {
	_, data := buildJournal(t, 8)
	// Record boundaries: recover the commit-order end offset of each cell
	// so "before the flip" is well-defined.
	res := InspectBytes(data)
	if len(res.Keys) != 8 || res.TailReason != "" {
		t.Fatalf("baseline journal unexpected: %s", res)
	}

	for off := 0; off < len(data); off++ {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x10
		dir := t.TempDir()
		path := filepath.Join(dir, "j.journal")
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(path, "matrix")
		if err != nil {
			t.Fatalf("flip@%d: Open error: %v", off, err)
		}
		q, quarantined := st.Quarantined()
		kept := 0
		for i := 0; i < 8; i++ {
			key := fmt.Sprintf("cell/%03d", i)
			var out kv
			if st.Get(key, &out) {
				kept++
				if out.Name != key || out.Count != i {
					t.Fatalf("flip@%d: cell %s served with corrupt contents %+v", off, key, out)
				}
			}
		}
		switch {
		case kept == 8 && !quarantined:
			// Flip landed in the header record's campaign bytes and CRC
			// caught it (discard-all), or... full recovery is impossible
			// with a flipped byte unless the flip hit a record and CRC
			// quarantined only the tail. kept==8 without quarantine can
			// only mean the journal was discarded as another campaign —
			// in which case kept would be 0 — so this means the flip was
			// detected and all 8 cells still verified, impossible.
			t.Fatalf("flip@%d: all 8 cells kept with no quarantine — flip undetected", off)
		case quarantined:
			// Every checksummed record before the quarantine offset must
			// have been kept: verified-prefix property.
			if q.Offset > int64(off)+1 {
				t.Fatalf("flip@%d: quarantine offset %d is past the flipped byte", off, q.Offset)
			}
			// The quarantine file must preserve the tail bytes.
			if q.Path != "" {
				qb, err := os.ReadFile(q.Path)
				if err != nil || int64(len(qb)) != q.Bytes {
					t.Fatalf("flip@%d: quarantine file missing or wrong size: %v", off, err)
				}
			}
		default:
			// No quarantine: the flip must have hit the header record
			// (campaign mismatch discards wholesale — visible, not
			// silent: Resumed()==0) and kept must be 0.
			if kept != 0 {
				t.Fatalf("flip@%d: partial replay (%d cells) without quarantine", off, kept)
			}
		}
		st.Close()
	}
}

// A flipped bit must never cause a record to silently vanish while later
// records survive — decoding always stops at the first bad frame.
func TestBitFlipNeverSkipsRecords(t *testing.T) {
	_, data := buildJournal(t, 5)
	for off := len(journalMagic); off < len(data); off++ {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x01
		res := InspectBytes(mut)
		// Keys must be a prefix of the originals.
		for i, k := range res.Keys {
			want := fmt.Sprintf("cell/%03d", i)
			if k != want {
				t.Fatalf("flip@%d: key[%d] = %q, want %q (hole in replay)", off, i, k, want)
			}
		}
	}
}

func TestInspectReportsDuplicates(t *testing.T) {
	buf := append([]byte(nil), journalMagic[:]...)
	buf = appendFrame(buf, []byte(`{"campaign":"c"}`))
	buf = appendFrame(buf, []byte(`{"cell":"x","data":{}}`))
	buf = appendFrame(buf, []byte(`{"cell":"y","data":{}}`))
	buf = appendFrame(buf, []byte(`{"cell":"x","data":{}}`))
	res := InspectBytes(buf)
	if d := res.Duplicates(); len(d) != 1 || d[0] != "x" {
		t.Fatalf("Duplicates = %v, want [x]", d)
	}
	if !strings.Contains(res.String(), "dups=1") {
		t.Fatalf("String() = %q", res.String())
	}
}
