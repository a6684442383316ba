package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sync"

	"fleetsim/internal/fsio"
)

// Store is an on-disk checkpoint journal for resumable campaigns and the
// fleetd job log. The on-disk format is journal v2 (crash-only by
// construction):
//
//	magic "FLTJNL2\n"
//	record*     where record = len(u32 LE) ++ crc32c(len ++ payload) ++ payload
//
// The first record's payload is the JSON header naming the campaign key (a
// canonical encoding of everything that determines the results); each
// later record is one completed cell. Every append is a single write
// followed by fsync, so a kill at any instant tears at most the record
// being written; Open verifies each record's CRC32C and replays the
// longest verified prefix. An undecodable tail is never silently
// destroyed: its bytes are preserved in path+".quarantine" and reported
// via Quarantined — a torn trailing record is the normal crash artifact,
// while a mid-file checksum failure is disk corruption that callers may
// want to alarm on. Resume rewrites the journal atomically (temp file,
// fsync, rename, directory fsync), so a crash mid-rewrite leaves either
// the old or the new complete journal, never a truncated one. A file
// without the v2 magic (such as a pre-checksum v1 JSONL journal) is not
// read at all: every byte is quarantined from offset 0, as a corrupt tail
// (torn if the file is a truncated magic), and the store starts empty.
//
// A campaign-key mismatch discards the journal — results from different
// parameters must never be resumed into each other.
//
// All filesystem access goes through an fsio.FS, so every durability
// failure mode (failed fsync, ENOSPC, short writes, crash-at-byte-K) is
// injectable in tests. A failed append latches the Store: the in-memory
// cell is rolled back, the error is returned, and every later Put fails
// fast with ErrJournalFailed — the Store never acknowledges a write it
// could not make durable.
//
// Store is safe for concurrent use: supervised sweep legs complete on
// worker goroutines and the SIGINT handler flushes from a signal
// goroutine.
type Store struct {
	mu    sync.Mutex
	fs    fsio.FS
	f     fsio.File
	path  string
	cells map[string]json.RawMessage
	// loaded counts the cells replayed from a pre-existing journal.
	loaded int
	// failed latches the first append error; later Puts fail fast.
	failed error
	// quarantine describes the undecodable tail of the replayed journal,
	// if any.
	quarantine *Quarantine
	// epoch is the fencing token held after AcquireLease (0 = no lease).
	epoch uint64
}

// journal v2 framing.
var journalMagic = [8]byte{'F', 'L', 'T', 'J', 'N', 'L', '2', '\n'}

const (
	frameHeaderSize = 8       // u32 length + u32 crc32c
	maxRecordSize   = 1 << 24 // 16 MiB sanity bound on one record
)

// crcTable builds the Castagnoli table on first journal use, so a program
// that never opens a journal does not build it at init.
var crcTable = sync.OnceValue(func() *crc32.Table { return crc32.MakeTable(crc32.Castagnoli) })

// ErrJournalFailed marks a Store whose journal stopped accepting durable
// appends (failed fsync, ENOSPC, fencing). Match with errors.Is.
var ErrJournalFailed = errors.New("snapshot: journal failed")

// Quarantine tail classifications.
const (
	// TailTorn is an incomplete trailing record: the ordinary artifact of
	// a crash mid-append. Nothing in it was ever acknowledged.
	TailTorn = "torn"
	// TailCorrupt is a record whose bytes are fully present but whose
	// checksum (or framing) is wrong: bit rot or an overwrite, not a torn
	// append. Records beyond it cannot be trusted and are quarantined.
	TailCorrupt = "corrupt"
)

// Quarantine describes the undecodable tail Open split off the journal.
type Quarantine struct {
	// Reason is TailTorn or TailCorrupt.
	Reason string
	// Offset is the byte offset in the original journal where decoding
	// stopped; everything before it replayed with verified checksums.
	Offset int64
	// Bytes is the length of the quarantined tail.
	Bytes int64
	// Path is the side file preserving the tail ("" if preserving failed).
	Path string
}

type journalHeader struct {
	Campaign string `json:"campaign"`
}

type journalLine struct {
	Cell string          `json:"cell"`
	Data json.RawMessage `json:"data"`
}

// appendFrame appends one v2 record frame for payload to buf.
func appendFrame(buf []byte, payload []byte) []byte {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	tab := crcTable()
	crc := crc32.Update(0, tab, hdr[0:4])
	crc = crc32.Update(crc, tab, payload)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// parseFrames walks the record frames in data (which excludes the magic),
// calling fn with each verified payload. It returns the offset (relative
// to data) where decoding stopped and the tail reason ("" when data was
// consumed exactly).
func parseFrames(data []byte, fn func(payload []byte) bool) (off int64, reason string) {
	tab := crcTable()
	for int(off) < len(data) {
		rest := data[off:]
		if len(rest) < frameHeaderSize {
			return off, TailTorn
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		if n > maxRecordSize {
			return off, TailCorrupt
		}
		if len(rest) < frameHeaderSize+int(n) {
			return off, TailTorn
		}
		payload := rest[frameHeaderSize : frameHeaderSize+int(n)]
		crc := crc32.Update(0, tab, rest[0:4])
		crc = crc32.Update(crc, tab, payload)
		if crc != binary.LittleEndian.Uint32(rest[4:8]) {
			return off, TailCorrupt
		}
		if !fn(payload) {
			return off, TailCorrupt
		}
		off += frameHeaderSize + int64(n)
	}
	return off, ""
}

// magicTail classifies bytes that do not start with the journal magic: a
// prefix of it is a torn first write, anything else (such as a
// pre-checksum v1 JSONL journal) is not a v2 journal and is corrupt.
func magicTail(data []byte) string {
	if bytes.HasPrefix(journalMagic[:], data) {
		return TailTorn
	}
	return TailCorrupt
}

// Open opens (or creates) the checkpoint journal at path for the given
// campaign key using the real filesystem. See OpenFS.
func Open(path, campaign string) (*Store, error) {
	return OpenFS(fsio.OS{}, path, campaign)
}

// OpenFS opens (or creates) the checkpoint journal at path for the given
// campaign key, with all filesystem access through fsys. An existing
// journal with a matching key is replayed so Get returns its completed
// cells; a mismatched journal is discarded and the file restarted. An
// undecodable tail (the whole file when it lacks the v2 magic) is
// preserved in path+".quarantine" and reported by Quarantined, and the
// journal is rewritten atomically without it.
func OpenFS(fsys fsio.FS, path, campaign string) (*Store, error) {
	st := &Store{fs: fsys, path: path, cells: make(map[string]json.RawMessage)}
	if err := fsys.MkdirAll(filepath.Dir(path)); err != nil {
		return nil, fmt.Errorf("snapshot: checkpoint dir: %w", err)
	}

	data, readErr := fsys.ReadFile(path)
	existed := readErr == nil && len(data) > 0
	clean := false // true when the on-disk file is already exactly canonical v2
	if existed {
		clean = st.replay(data, campaign)
	}

	if st.quarantine != nil {
		// Never destroy bytes: preserve the undecodable tail in a side
		// file before the rewrite below drops it from the journal.
		qpath := path + ".quarantine"
		tail := data[st.quarantine.Offset:]
		if err := fsio.Replace(fsys, qpath, tail); err == nil {
			st.quarantine.Path = qpath
		}
	}

	if !clean {
		// Fresh journal, discarded campaign, or dropped tail:
		// rewrite the canonical v2 file atomically. A crash at any byte of
		// this leaves the previous complete journal in place.
		if err := fsio.Replace(fsys, path, st.encode(campaign)); err != nil {
			return nil, fmt.Errorf("snapshot: rewrite checkpoint: %w", err)
		}
	}

	f, err := fsys.OpenAppend(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: open checkpoint for append: %w", err)
	}
	st.f = f
	return st, nil
}

// replay parses a pre-existing journal, keeping its cells only when the
// campaign key matches. It returns whether the file is already the
// canonical v2 encoding of the replayed state (so Open can skip the
// rewrite).
func (st *Store) replay(data []byte, campaign string) bool {
	if !bytes.HasPrefix(data, journalMagic[:]) {
		st.quarantine = &Quarantine{Reason: magicTail(data), Bytes: int64(len(data))}
		return false
	}
	body := data[len(journalMagic):]
	sawHeader, campaignOK := false, false
	order := make([]string, 0, 16)
	off, reason := parseFrames(body, func(payload []byte) bool {
		if !sawHeader {
			sawHeader = true
			var hdr journalHeader
			if err := json.Unmarshal(payload, &hdr); err != nil {
				return false
			}
			campaignOK = hdr.Campaign == campaign
			return true
		}
		var l journalLine
		if err := json.Unmarshal(payload, &l); err != nil || l.Cell == "" {
			return false
		}
		if campaignOK {
			if _, dup := st.cells[l.Cell]; !dup {
				st.loaded++
				order = append(order, l.Cell)
			}
			st.cells[l.Cell] = l.Data
		}
		return true
	})
	if sawHeader && !campaignOK {
		// Different campaign: discard wholesale, no quarantine — the file
		// is valid, it just belongs to other parameters.
		st.cells = make(map[string]json.RawMessage)
		st.loaded = 0
		return false
	}
	if reason != "" {
		st.quarantine = &Quarantine{
			Reason: reason,
			Offset: int64(len(journalMagic)) + off,
			Bytes:  int64(len(body)) - off,
		}
		return false
	}
	return true
}

// encode renders the canonical v2 journal bytes for the current cells.
func (st *Store) encode(campaign string) []byte {
	buf := append([]byte(nil), journalMagic[:]...)
	hdr, _ := json.Marshal(journalHeader{Campaign: campaign})
	buf = appendFrame(buf, hdr)
	for _, cell := range st.order() {
		payload, _ := json.Marshal(journalLine{Cell: cell, Data: st.cells[cell]})
		buf = appendFrame(buf, payload)
	}
	return buf
}

// order returns cell keys in insertion-stable sorted order for journal
// rewrites (map iteration order would make rewrites nondeterministic).
func (st *Store) order() []string {
	keys := make([]string, 0, len(st.cells))
	for k := range st.cells {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// Keys returns every recorded cell key in sorted order. The service layer
// uses it to enumerate journaled jobs at resume time.
func (st *Store) Keys() []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.order()
}

// Len returns the number of completed cells currently recorded.
func (st *Store) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.cells)
}

// Resumed returns how many cells were replayed from a pre-existing journal
// at Open time.
func (st *Store) Resumed() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.loaded
}

// Quarantined reports the undecodable journal tail Open preserved, if
// any. A TailTorn reason is the expected artifact of a crash mid-append;
// TailCorrupt means bytes inside the journal failed their checksum and
// callers should alarm.
func (st *Store) Quarantined() (Quarantine, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.quarantine == nil {
		return Quarantine{}, false
	}
	return *st.quarantine, true
}

// Failed returns the latched append error, if the journal has failed.
func (st *Store) Failed() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.failed
}

// Get unmarshals the recorded result for cell into out, reporting whether
// the cell was found.
func (st *Store) Get(cell string, out any) bool {
	st.mu.Lock()
	raw, ok := st.cells[cell]
	st.mu.Unlock()
	if !ok {
		return false
	}
	return json.Unmarshal(raw, out) == nil
}

// Put records a completed cell's result and appends it durably to the
// journal. On any append or fsync failure the in-memory cell is rolled
// back, the error (wrapped with ErrJournalFailed) is returned, and the
// Store latches: every later Put fails fast. A Put that returns nil is a
// durability promise; one that returns an error changed nothing.
func (st *Store) Put(cell string, v any) error {
	return st.put(cell, v, false)
}

func (st *Store) put(cell string, v any, fenced bool) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("snapshot: marshal cell %q: %w", cell, err)
	}
	payload, err := json.Marshal(journalLine{Cell: cell, Data: raw})
	if err != nil {
		return err
	}
	frame := appendFrame(nil, payload)

	st.mu.Lock()
	defer st.mu.Unlock()
	if st.failed != nil {
		return fmt.Errorf("snapshot: cell %q refused: %w", cell, st.failed)
	}
	if fenced && st.epoch != 0 {
		if err := st.checkLeaseLocked(); err != nil {
			// A fenced store must stand down entirely: latch so unfenced
			// Puts cannot sneak past the newer owner either.
			st.failed = fmt.Errorf("%w: %w", ErrJournalFailed, err)
			return err
		}
	}
	prev, had := st.cells[cell]
	st.cells[cell] = raw
	if st.f == nil {
		return nil
	}
	if err := st.appendLocked(frame); err != nil {
		if had {
			st.cells[cell] = prev
		} else {
			delete(st.cells, cell)
		}
		st.failed = fmt.Errorf("%w: %w", ErrJournalFailed, err)
		return fmt.Errorf("snapshot: append cell %q: %w", cell, st.failed)
	}
	return nil
}

// appendLocked writes one frame and makes it durable. A short write torn
// mid-frame is exactly what Open's CRC verification recovers from, but it
// still fails the append: the record was not acknowledged.
func (st *Store) appendLocked(frame []byte) error {
	n, err := st.f.Write(frame)
	if err != nil {
		return err
	}
	if n < len(frame) {
		return fmt.Errorf("short write: %d of %d bytes", n, len(frame))
	}
	return st.f.Sync()
}

// Flush fsyncs the journal (the SIGINT handler calls this before exiting).
func (st *Store) Flush() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.f == nil || st.failed != nil {
		return st.failed
	}
	return st.f.Sync()
}

// Close flushes and closes the journal. The Store remains readable (Get)
// but further Puts only update memory.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.f == nil {
		return nil
	}
	var err error
	if st.failed == nil {
		err = st.f.Sync()
	}
	if cerr := st.f.Close(); err == nil {
		err = cerr
	}
	st.f = nil
	return err
}
