package tracestore

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// maxLine bounds one trace line on the read path (matches bufio scanner
// sizing for generous payloads; a 16 MiB line is corruption, not data).
const maxLine = 16 << 20

// segmentFiles lists dir's segment file names in ordinal order, verifying
// the names parse. Returns nil for a missing directory.
func segmentFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		if _, err := segmentNum(name); err != nil {
			return nil, err
		}
		names = append(names, name)
	}
	sort.Strings(names) // zero-padded ordinals sort lexically
	return names, nil
}

// segmentNum parses the ordinal out of a segment file name.
func segmentNum(name string) (int, error) {
	digits := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	n, err := strconv.Atoi(digits)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("tracestore: malformed segment name %q", name)
	}
	return n, nil
}

// SegmentInfo describes one segment as found on disk.
type SegmentInfo struct {
	Path   string
	Num    int
	Header Header
	Seal   *Seal        // nil when the segment is unsealed (open or truncated)
	Index  []IndexEntry // from the segment's index line; nil when unsealed
}

// Store is an opened trace directory.
type Store struct {
	Dir      string
	Segments []SegmentInfo
}

// Open lists and header-checks the segments of dir. It tolerates an
// unsealed final segment (a live or interrupted writer) but rejects
// gaps, duplicate ordinals and unreadable headers: those are structural,
// not merely unverified. Chain hashes are NOT checked here — use
// VerifyChain for the cryptographic pass.
func Open(dir string) (*Store, error) {
	names, err := segmentFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("tracestore: %s holds no segments", dir)
	}
	st := &Store{Dir: dir}
	for i, name := range names {
		num, err := segmentNum(name)
		if err != nil {
			return nil, err
		}
		if num != i {
			return nil, fmt.Errorf("tracestore: segment %s out of sequence (want ordinal %d)", name, i)
		}
		info := SegmentInfo{Path: filepath.Join(dir, name), Num: num}
		if err := readHeaderAndSeal(&info); err != nil {
			return nil, err
		}
		if info.Header.Segment != num {
			return nil, fmt.Errorf("tracestore: %s: header names segment %d (file renamed?)", name, info.Header.Segment)
		}
		st.Segments = append(st.Segments, info)
	}
	return st, nil
}

// readHeaderAndSeal fills info.Header and, for sealed segments,
// info.Seal and info.Index — reading only the first and last two lines.
func readHeaderAndSeal(info *SegmentInfo) error {
	base := filepath.Base(info.Path)
	f, err := os.Open(info.Path)
	if err != nil {
		return fmt.Errorf("tracestore: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 64<<10)
	hdrLine, err := br.ReadBytes('\n')
	if err != nil {
		return fmt.Errorf("tracestore: %s: reading header: %w", base, err)
	}
	if err := json.Unmarshal(hdrLine, &info.Header); err != nil {
		return fmt.Errorf("tracestore: %s: malformed header: %w", base, err)
	}
	if info.Header.Kind != Kind || info.Header.Schema != Schema {
		return fmt.Errorf("tracestore: %s: header is %q schema %d, want %q schema %d",
			base, info.Header.Kind, info.Header.Schema, Kind, Schema)
	}
	tail, err := tailLines(f, 2)
	if err != nil {
		return fmt.Errorf("tracestore: %s: %w", base, err)
	}
	if len(tail) == 0 || !IsSealLine(tail[len(tail)-1]) {
		return nil // unsealed (open writer or truncation); caller decides
	}
	var s Seal
	if err := json.Unmarshal(tail[len(tail)-1], &s); err != nil {
		return fmt.Errorf("tracestore: %s: malformed seal: %w", base, err)
	}
	info.Seal = &s
	if len(tail) == 2 && IsIndexLine(tail[0]) {
		var il IndexLine
		if err := json.Unmarshal(tail[0], &il); err != nil {
			return fmt.Errorf("tracestore: %s: malformed index line: %w", base, err)
		}
		info.Index = il.Entries
	}
	return nil
}

// tailLines returns up to the last n newline-terminated lines of f (in
// file order, trailing newlines stripped) without scanning the whole
// file. A final unterminated fragment counts as a line.
func tailLines(f *os.File, n int) ([][]byte, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	const chunk = 64 << 10
	var buf []byte
	off := size
	for off > 0 {
		step := int64(chunk)
		if step > off {
			step = off
		}
		off -= step
		b := make([]byte, step)
		if _, err := f.ReadAt(b, off); err != nil {
			return nil, err
		}
		buf = append(b, buf...)
		if bytes.Count(buf, []byte{'\n'}) > n || off == 0 {
			break
		}
		if int64(len(buf)) > int64(n)*maxLine {
			return nil, fmt.Errorf("final %d lines exceed %d bytes", n, int64(n)*maxLine)
		}
	}
	var lines [][]byte
	for len(buf) > 0 {
		line := bytes.TrimSuffix(buf, []byte{'\n'})
		i := bytes.LastIndexByte(line, '\n')
		line = line[i+1:]
		lines = append([][]byte{line}, lines...)
		if i < 0 || len(lines) == n {
			break
		}
		buf = buf[:i+1]
	}
	return lines, nil
}

// Selection is one (segment, starting offset) pair a filtered scan
// should visit.
type Selection struct {
	Path   string
	Num    int
	Offset int64 // byte offset of the first line to read; 0 = whole segment
}

// Filter narrows a scan. The zero value selects everything.
type Filter struct {
	// Scope, when non-empty, selects events whose scope equals it or
	// lives under it ("fig9" matches "fig9" and "fig9/3").
	Scope string
	// MinStep/MaxStep bound the step range when HasSteps is set
	// (inclusive).
	HasSteps         bool
	MinStep, MaxStep int64
}

// MatchScope reports whether an event scope passes the filter.
func (f Filter) MatchScope(scope string) bool {
	return f.Scope == "" || scope == f.Scope || strings.HasPrefix(scope, f.Scope+"/")
}

// MatchStep reports whether an event step passes the filter.
func (f Filter) MatchStep(step int64) bool {
	return !f.HasSteps || (step >= f.MinStep && step <= f.MaxStep)
}

// Select plans a filtered scan from the index: the segments whose index
// entries can satisfy the filter, each with the earliest byte offset a
// matching event can live at. Unsealed segments (no index yet) are
// always selected in full. This is the seek-not-scan path: segments the
// index rules out are never opened.
func (st *Store) Select(f Filter) []Selection {
	var out []Selection
	for _, seg := range st.Segments {
		if seg.Seal == nil {
			out = append(out, Selection{Path: seg.Path, Num: seg.Num})
			continue
		}
		offset := int64(-1)
		for _, e := range seg.Index {
			if !f.MatchScope(e.Scope) {
				continue
			}
			if f.HasSteps && (e.MaxStep < f.MinStep || e.MinStep > f.MaxStep) {
				continue
			}
			if offset < 0 || e.Offset < offset {
				offset = e.Offset
			}
		}
		if offset >= 0 {
			out = append(out, Selection{Path: seg.Path, Num: seg.Num, Offset: offset})
		}
	}
	return out
}

// scanSegment streams the event lines of one segment from the given
// offset, skipping the header (when offset is 0) and stopping at the
// seal. fn receives each line without its trailing newline; the slice is
// only valid during the call.
func scanSegment(path string, offset int64, fn func(line []byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("tracestore: %w", err)
	}
	defer f.Close()
	if offset > 0 {
		if _, err := f.Seek(offset, io.SeekStart); err != nil {
			return fmt.Errorf("tracestore: %s: %w", filepath.Base(path), err)
		}
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), maxLine)
	first := offset == 0
	for sc.Scan() {
		line := sc.Bytes()
		if first {
			first = false
			continue // header
		}
		if IsSealLine(line) || IsIndexLine(line) {
			break // control tail: index line (when present) precedes the seal
		}
		if err := fn(line); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("tracestore: %s: %w", filepath.Base(path), err)
	}
	return nil
}

// ScanSelection streams the planned selections of a filtered scan. The
// caller still applies the filter per event after decoding — the index
// only rules segments out, it does not prove every remaining line
// matches.
func (st *Store) ScanSelection(sel []Selection, fn func(line []byte) error) error {
	for _, s := range sel {
		if err := scanSegment(s.Path, s.Offset, fn); err != nil {
			return err
		}
	}
	return nil
}

// ChainInfo summarises a successful VerifyChain pass.
type ChainInfo struct {
	Segments int
	Events   int
	// Head is the hex SHA-256 of the final segment file — the value to
	// anchor externally (a release note, a signed mail, another ledger)
	// when the trace is evidence: everything before it is then immutable.
	Head string
	// Sealed is false when the final segment is unsealed (live writer or
	// a crash); VerifyChain reports that as an error, so a ChainInfo in
	// hand means Sealed or the caller opted into tolerating it.
	Sealed bool
}

// ChainError is a chain verification failure, naming the segment.
type ChainError struct {
	Segment string // file name, e.g. "seg-00000003.jsonl"
	Reason  string
}

func (e *ChainError) Error() string {
	return fmt.Sprintf("tracestore: chain broken at %s: %s", e.Segment, e.Reason)
}

// VerifyChain re-hashes every segment of dir and checks the full ledger
// contract: contiguous ordinals, headers chained to the previous
// segment's file hash, seal hashes matching recomputed content, event
// counts matching, nothing after the seal, and a sealed final segment.
// The first breach aborts with a *ChainError naming the segment; single
// bit flips, line reordering across segments, truncation and segment
// reordering all land here.
func VerifyChain(dir string) (*ChainInfo, error) {
	st, err := Open(dir) // structural pass: names, ordinals, headers
	if err != nil {
		return nil, err
	}
	info := &ChainInfo{Sealed: true}
	prev := ""
	for _, seg := range st.Segments {
		base := filepath.Base(seg.Path)
		if seg.Header.Prev != prev {
			return nil, &ChainError{Segment: base,
				Reason: fmt.Sprintf("header prev %.12q does not match previous segment hash %.12q", seg.Header.Prev, prev)}
		}
		events, fileHash, err := verifySegment(seg)
		if err != nil {
			return nil, err
		}
		if seg.Seal == nil {
			return nil, &ChainError{Segment: base, Reason: "segment is unsealed (truncated, or writer died before sealing)"}
		}
		info.Events += events
		info.Segments++
		prev = fileHash
	}
	info.Head = prev
	return info, nil
}

// verifySegment re-hashes one segment file: the content hash must match
// the seal (when sealed), the seal must be the last line, and the event
// count must match. Returns the event count and the whole-file hash. The
// whole-file hash is computed over the raw bytes (via TeeReader), not
// reconstructed from lines, so even a truncated final newline changes it.
func verifySegment(seg SegmentInfo) (int, string, error) {
	base := filepath.Base(seg.Path)
	f, err := os.Open(seg.Path)
	if err != nil {
		return 0, "", fmt.Errorf("tracestore: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, "", fmt.Errorf("tracestore: %s: %w", base, err)
	}
	if fi.Size() > 0 {
		lastByte := make([]byte, 1)
		if _, err := f.ReadAt(lastByte, fi.Size()-1); err != nil {
			return 0, "", fmt.Errorf("tracestore: %s: %w", base, err)
		}
		if lastByte[0] != '\n' {
			return 0, "", &ChainError{Segment: base, Reason: "file does not end in a newline (truncated)"}
		}
	}
	content := sha256.New() // bytes before the seal line
	full := sha256.New()    // every raw byte of the file
	sc := bufio.NewScanner(io.TeeReader(f, full))
	sc.Buffer(make([]byte, 64<<10), maxLine)
	events := 0
	lineNo := 0
	sawSeal := false
	sawIndex := false
	for sc.Scan() {
		line := sc.Bytes()
		lineNo++
		if sawSeal {
			return 0, "", &ChainError{Segment: base, Reason: fmt.Sprintf("line %d follows the seal", lineNo)}
		}
		switch {
		case lineNo > 1 && IsSealLine(line):
			var s Seal
			if err := json.Unmarshal(line, &s); err != nil {
				return 0, "", &ChainError{Segment: base, Reason: fmt.Sprintf("malformed seal: %v", err)}
			}
			// The final segment's seal has no successor hashing it, so
			// every field is cross-checked instead — starting with the
			// line's exact bytes against a canonical re-marshal, which
			// catches shape-level edits (field renames, whitespace,
			// number formats) the field checks below cannot see.
			canon, err := json.Marshal(s)
			if err != nil {
				return 0, "", fmt.Errorf("tracestore: %s: %w", base, err)
			}
			if string(canon) != string(line) {
				return 0, "", &ChainError{Segment: base, Reason: "seal line is not in canonical form (edited)"}
			}
			got := hex.EncodeToString(content.Sum(nil))
			if s.Hash != got {
				return 0, "", &ChainError{Segment: base,
					Reason: fmt.Sprintf("content hash %.12s… does not match sealed hash %.12s… (bit flip or edit)", got, s.Hash)}
			}
			if s.Segment != seg.Num {
				return 0, "", &ChainError{Segment: base, Reason: fmt.Sprintf("seal names segment %d", s.Segment)}
			}
			if s.Events != events {
				return 0, "", &ChainError{Segment: base,
					Reason: fmt.Sprintf("segment holds %d events but seal declares %d (lines added or removed)", events, s.Events)}
			}
			if !sawIndex {
				return 0, "", &ChainError{Segment: base, Reason: "sealed segment is missing its index line"}
			}
			sawSeal = true
			continue // seal bytes are in the full-file hash only
		case lineNo > 1 && IsIndexLine(line):
			if sawIndex {
				return 0, "", &ChainError{Segment: base, Reason: "duplicate index line"}
			}
			var il IndexLine
			if err := json.Unmarshal(line, &il); err != nil {
				return 0, "", &ChainError{Segment: base, Reason: fmt.Sprintf("malformed index line: %v", err)}
			}
			if il.Segment != seg.Num {
				return 0, "", &ChainError{Segment: base, Reason: fmt.Sprintf("index line names segment %d", il.Segment)}
			}
			sum := 0
			for _, e := range il.Entries {
				sum += e.Events
			}
			if sum != events {
				return 0, "", &ChainError{Segment: base,
					Reason: fmt.Sprintf("index entries cover %d events but segment holds %d", sum, events)}
			}
			sawIndex = true
		case lineNo > 1:
			if sawIndex {
				return 0, "", &ChainError{Segment: base, Reason: fmt.Sprintf("event line %d follows the index line", lineNo)}
			}
			events++
		}
		content.Write(line)
		content.Write([]byte{'\n'})
	}
	if err := sc.Err(); err != nil {
		return 0, "", &ChainError{Segment: base, Reason: fmt.Sprintf("unreadable: %v", err)}
	}
	// Drain whatever the scanner's buffer did not pull (none in practice,
	// but TeeReader only hashes what is read).
	if _, err := io.Copy(io.Discard, io.TeeReader(f, full)); err != nil {
		return 0, "", fmt.Errorf("tracestore: %s: %w", base, err)
	}
	return events, hex.EncodeToString(full.Sum(nil)), nil
}
