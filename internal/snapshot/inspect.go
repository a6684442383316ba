package snapshot

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// InspectResult is the raw, replay-free audit of a journal file. Unlike
// Open it does not dedup, rewrite, or quarantine anything: Keys lists
// every decodable record key in append order, duplicates included —
// which is exactly what a chaos harness needs to prove exactly-once
// commits (a cell key appearing twice means some process re-executed and
// re-committed a cell the journal already held).
type InspectResult struct {
	// Version is 2 for the framed format, 0 for bytes without its magic.
	Version int
	// Campaign is the journal's header key.
	Campaign string
	// Keys are the decodable record keys in append order, with duplicates.
	Keys []string
	// TailReason is "" for a cleanly-terminated file, TailTorn or
	// TailCorrupt otherwise.
	TailReason string
	// TailOffset is where decoding stopped (== file size when clean).
	TailOffset int64
	// TailBytes is the length of the undecodable tail.
	TailBytes int64
}

// Duplicates returns the keys that appear more than once, in first-seen
// order.
func (r InspectResult) Duplicates() []string {
	seen := make(map[string]int, len(r.Keys))
	var dups []string
	for _, k := range r.Keys {
		seen[k]++
		if seen[k] == 2 {
			dups = append(dups, k)
		}
	}
	return dups
}

// DuplicateCells narrows Duplicates to cell-execution records (keys
// containing a "/cell/" segment). A duplicated spec or done marker can
// be a benign re-journal of metadata; a duplicated cell key means a cell
// was executed and committed twice — the exactly-once violation the
// overload and chaos harnesses assert against.
func (r InspectResult) DuplicateCells() []string {
	var dups []string
	for _, k := range r.Duplicates() {
		if strings.Contains(k, "/cell/") {
			dups = append(dups, k)
		}
	}
	return dups
}

// Inspect audits the journal file at path without opening it for writing
// and without modifying anything on disk.
func Inspect(path string) (InspectResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return InspectResult{}, err
	}
	return InspectBytes(data), nil
}

// InspectBytes audits raw journal bytes. Bytes without the v2 magic are
// reported whole as a tail at offset 0, as Open would quarantine them.
func InspectBytes(data []byte) InspectResult {
	if !bytes.HasPrefix(data, journalMagic[:]) {
		return InspectResult{TailReason: magicTail(data), TailBytes: int64(len(data))}
	}
	res := InspectResult{Version: 2}
	body := data[len(journalMagic):]
	sawHeader := false
	off, reason := parseFrames(body, func(payload []byte) bool {
		if !sawHeader {
			sawHeader = true
			var hdr journalHeader
			if err := json.Unmarshal(payload, &hdr); err != nil {
				return false
			}
			res.Campaign = hdr.Campaign
			return true
		}
		var l journalLine
		if err := json.Unmarshal(payload, &l); err != nil || l.Cell == "" {
			return false
		}
		res.Keys = append(res.Keys, l.Cell)
		return true
	})
	res.TailReason = reason
	res.TailOffset = int64(len(journalMagic)) + off
	res.TailBytes = int64(len(body)) - off
	return res
}

// String renders a one-line audit summary.
func (r InspectResult) String() string {
	tail := "clean"
	if r.TailReason != "" {
		tail = fmt.Sprintf("%s tail (%d bytes at %d)", r.TailReason, r.TailBytes, r.TailOffset)
	}
	return fmt.Sprintf("journal v%d campaign=%q records=%d dups=%d %s",
		r.Version, r.Campaign, len(r.Keys), len(r.Duplicates()), tail)
}
