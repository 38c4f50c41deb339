// Package tracestore is the segmented, tamper-evident trace store behind
// the observability layer's -trace-out directory mode: instead of one
// unbounded JSONL file, a store is a directory of bounded segment files
// whose integrity is provable after the fact and whose contents are
// seekable without a full scan.
//
// The design follows the ledger triangle of append-only audit logs —
// integrity proofs, bulk storage, and a compact index:
//
//   - Bulk storage: events live in segment files (seg-00000000.jsonl,
//     seg-00000001.jsonl, …), each capped by event count and byte size.
//     Inside a segment the format is exactly the JSONL the single-file
//     tracer writes, so every existing line-oriented tool still works.
//
//   - Integrity proofs: every segment opens with a schema-3 header naming
//     its ordinal and the SHA-256 of the *entire previous segment file*
//     (the chain link), and closes with a seal line carrying the SHA-256
//     of its own content (header + event lines). A bit flip anywhere
//     breaks the sealed content hash; rewriting a seal to match breaks
//     the next header's chain link; deleting, reordering or truncating
//     segments breaks ordinal or chain continuity. Only the final
//     segment's seal has no successor covering it, which is inherent to
//     hash chains — anchor the head hash (reported by VerifyChain)
//     externally when the trace is evidentiary.
//
//   - Compact index: each sealed segment carries its per-scope index
//     (scope → first byte offset, step range, event count) as the line
//     right before the seal — inside the sealed content, so the index
//     itself is tamper-evident — and the same entries are mirrored into
//     index.jsonl for one-read lookup. The mirror is a pure cache: if a
//     crash lands between a seal and its index append, LoadIndex
//     rebuilds the missing entries from the segments.
//
// The package is deliberately stdlib-only and line-oriented: it never
// decodes event JSON. The tracer hands it (scope, step, line) triples —
// see obs.NewTracerSink — and readers hand lines back for the caller to
// decode, which keeps the dependency arrow pointing obs → tracestore.
package tracestore

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Naming and format constants of a store directory.
const (
	// Kind is the header/seal discriminator ("ken-trace" matches the
	// single-file tracer so a segment's first line is recognisably a
	// trace header; index lines use KindIndex and seals KindSeal).
	Kind      = "ken-trace"
	KindIndex = "ken-index"
	KindSeal  = "ken-seal"
	// Schema is the segmented trace schema version. Schema 1 is a
	// headerless JSONL file, schema 2 a single JSONL file with a header
	// line; schema 3 adds segmenting, hash chaining and sealing.
	Schema = 3
	// IndexFile is the per-directory index mirror.
	IndexFile = "index.jsonl"
	// segPrefix/segSuffix frame segment file names: seg-00000000.jsonl.
	segPrefix = "seg-"
	segSuffix = ".jsonl"
	segDigits = 8
)

// Defaults for Options zero values.
const (
	DefaultMaxEvents = 100_000
	DefaultMaxBytes  = 16 << 20
)

// Header is the first line of every segment file.
type Header struct {
	Kind    string `json:"kind"`
	Schema  int    `json:"schema"`
	Segment int    `json:"segment"`
	// Prev is the hex SHA-256 of the entire previous segment file
	// (content and seal line included); empty for segment 0. It is what
	// makes the segments a chain rather than a pile.
	Prev string `json:"prev,omitempty"`
}

// IndexEntry locates one scope's events inside one segment: the byte
// offset of the scope's first event line, the inclusive step range its
// events span, and how many there are. Entries are written in the
// segment's index line (authoritative, covered by the seal's content
// hash) and mirrored into index.jsonl (cache).
type IndexEntry struct {
	Segment int    `json:"segment"`
	Scope   string `json:"scope"`
	Offset  int64  `json:"offset"`
	MinStep int64  `json:"min_step"`
	MaxStep int64  `json:"max_step"`
	Events  int    `json:"events"`
}

// IndexLine is the penultimate line of a sealed segment: the per-scope
// index, written before the seal so the seal's content hash covers it.
type IndexLine struct {
	Kind    string       `json:"kind"` // KindIndex
	Segment int          `json:"segment"`
	Entries []IndexEntry `json:"entries"`
}

// Seal is the last line of a sealed segment. It is deliberately flat and
// fully cross-checkable: no seal covers the FINAL segment's seal (the
// inherent limit of a hash chain), so VerifyChain validates every field
// of it against recomputed values instead — Segment against the file
// name, Events against the counted lines, Hash against the re-hashed
// content, and the line's exact bytes against a canonical re-marshal.
type Seal struct {
	Kind    string `json:"kind"` // KindSeal
	Segment int    `json:"segment"`
	Events  int    `json:"events"`
	// Hash is the hex SHA-256 of every byte of the segment before the
	// seal line (header, event lines and index line, newlines included).
	Hash string `json:"hash"`
}

// sealPrefix/indexPrefix are how readers cheaply recognise control lines
// without decoding every event: both structs marshal with Kind first.
var (
	sealPrefix  = []byte(`{"kind":"` + KindSeal + `"`)
	indexPrefix = []byte(`{"kind":"` + KindIndex + `"`)
)

// IsSealLine reports whether a raw segment line is a seal.
func IsSealLine(line []byte) bool { return hasBytePrefix(line, sealPrefix) }

// IsIndexLine reports whether a raw segment line is an index line.
func IsIndexLine(line []byte) bool { return hasBytePrefix(line, indexPrefix) }

func hasBytePrefix(line, prefix []byte) bool {
	if len(line) < len(prefix) {
		return false
	}
	for i, b := range prefix {
		if line[i] != b {
			return false
		}
	}
	return true
}

// SegmentPath returns the file name of segment n inside dir.
func SegmentPath(dir string, n int) string {
	return filepath.Join(dir, fmt.Sprintf("%s%0*d%s", segPrefix, segDigits, n, segSuffix))
}

// Options bound a segment's growth; zero values take the defaults.
type Options struct {
	// MaxEvents rolls the segment after this many event lines.
	MaxEvents int
	// MaxBytes rolls the segment once its size would exceed this many
	// bytes (a segment always accepts at least one event).
	MaxBytes int64
}

func (o Options) withDefaults() Options {
	if o.MaxEvents <= 0 {
		o.MaxEvents = DefaultMaxEvents
	}
	if o.MaxBytes <= 0 {
		o.MaxBytes = DefaultMaxBytes
	}
	return o
}

// scopeIdx accumulates one scope's index entry for the open segment.
type scopeIdx struct {
	offset   int64
	min, max int64
	events   int
}

// Writer appends events to a segmented store. It implements the
// obs.LineSink contract (WriteEventLine, Flush); Close seals the open
// segment. Safe for concurrent use.
type Writer struct {
	dir  string
	opts Options

	mu     sync.Mutex
	seg    int      // ordinal of the open segment
	f      *os.File // open segment file (nil between Seal and next write)
	bw     *bufio.Writer
	h      hash.Hash // running SHA-256 over the open segment's bytes
	events int       // event lines in the open segment
	size   int64     // bytes written to the open segment
	prev   string    // full-file hash of the previous segment
	scopes map[string]*scopeIdx
	idx    *os.File // index.jsonl, append-only
	err    error    // first write error; sticks
}

// Create initialises a store in dir (created if missing). The directory
// must not already contain segments: a store is a single chained history,
// so resuming one would fork the chain.
func Create(dir string, opts Options) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	if segs, err := segmentFiles(dir); err != nil {
		return nil, err
	} else if len(segs) > 0 {
		return nil, fmt.Errorf("tracestore: %s already holds %d segment(s); a chained store cannot be resumed", dir, len(segs))
	}
	idx, err := os.OpenFile(filepath.Join(dir, IndexFile), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o666)
	if err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	w := &Writer{dir: dir, opts: opts.withDefaults(), idx: idx}
	if err := w.openSegment(); err != nil {
		_ = idx.Close() // surfacing the openSegment error; the close error adds nothing
		return nil, err
	}
	return w, nil
}

// openSegment starts segment w.seg with its chained header. Caller holds
// the lock (or is the constructor).
func (w *Writer) openSegment() error {
	f, err := os.OpenFile(SegmentPath(w.dir, w.seg), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o666)
	if err != nil {
		return fmt.Errorf("tracestore: %w", err)
	}
	hdr, err := json.Marshal(Header{Kind: Kind, Schema: Schema, Segment: w.seg, Prev: w.prev})
	if err != nil {
		_ = f.Close() // surfacing the marshal error; the close error adds nothing
		return fmt.Errorf("tracestore: segment header: %w", err)
	}
	w.f = f
	w.bw = bufio.NewWriter(f)
	w.h = sha256.New()
	w.events = 0
	w.size = 0
	w.scopes = map[string]*scopeIdx{}
	return w.writeLine(hdr)
}

// writeLine appends one raw line (sans newline) to the open segment,
// feeding the running hash the exact bytes written.
func (w *Writer) writeLine(line []byte) error {
	for _, chunk := range [][]byte{line, {'\n'}} {
		if _, err := w.bw.Write(chunk); err != nil {
			return fmt.Errorf("tracestore: segment %d: %w", w.seg, err)
		}
		w.h.Write(chunk) // sha256.Write never errors
	}
	w.size += int64(len(line)) + 1
	return nil
}

// WriteEventLine appends one encoded event line, rolling to a new sealed
// segment when the open one is full. The scope and step feed the
// per-segment index; the line bytes are stored verbatim. The first error
// sticks: later writes return it without touching the store.
func (w *Writer) WriteEventLine(scope string, step int64, line []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.f != nil && w.events > 0 &&
		(w.events >= w.opts.MaxEvents || w.size+int64(len(line))+1 > w.opts.MaxBytes) {
		if err := w.sealLocked(); err != nil {
			return err
		}
	}
	if w.f == nil { // first write, or first after a seal
		if err := w.setErr(w.openSegment()); err != nil {
			return err
		}
	}
	off := w.size
	if err := w.setErr(w.writeLine(line)); err != nil {
		return err
	}
	w.events++
	si, ok := w.scopes[scope]
	if !ok {
		si = &scopeIdx{offset: off, min: step, max: step}
		w.scopes[scope] = si
	}
	if step < si.min {
		si.min = step
	}
	if step > si.max {
		si.max = step
	}
	si.events++
	return nil
}

// setErr records the first error.
func (w *Writer) setErr(err error) error {
	if err != nil && w.err == nil {
		w.err = err
	}
	return w.err
}

// Flush drains buffered bytes of the open segment to the OS.
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.bw != nil {
		// The flush runs under the lock on purpose: the store serializes
		// segment writes behind it, and Flush must not race WriteEventLine.
		if err := w.bw.Flush(); err != nil {
			return w.setErr(fmt.Errorf("tracestore: flush segment %d: %w", w.seg, err))
		}
	}
	return nil
}

// Seal closes the open segment with its seal line and index entries; the
// next WriteEventLine opens the successor. Sealing an already-sealed (or
// never-written) store is a no-op, so it is safe to call from a signal
// handler racing normal shutdown.
func (w *Writer) Seal() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.f == nil {
		return nil
	}
	return w.sealLocked()
}

// sealLocked writes the index line + seal for the open segment and
// advances the chain state. Caller holds the lock.
func (w *Writer) sealLocked() error {
	entries := w.indexEntries()
	idxLine, err := json.Marshal(IndexLine{Kind: KindIndex, Segment: w.seg, Entries: entries})
	if err != nil {
		return w.setErr(fmt.Errorf("tracestore: index line: %w", err))
	}
	// The index line goes in before the seal so the content hash covers it.
	if err := w.setErr(w.writeLine(idxLine)); err != nil {
		return err
	}
	content := hex.EncodeToString(w.h.Sum(nil))
	seal, err := json.Marshal(Seal{Kind: KindSeal, Segment: w.seg, Events: w.events, Hash: content})
	if err != nil {
		return w.setErr(fmt.Errorf("tracestore: seal: %w", err))
	}
	if err := w.setErr(w.writeLine(seal)); err != nil {
		return err
	}
	if err := w.bw.Flush(); err != nil {
		return w.setErr(fmt.Errorf("tracestore: seal segment %d: %w", w.seg, err))
	}
	if err := w.f.Sync(); err != nil {
		return w.setErr(fmt.Errorf("tracestore: sync segment %d: %w", w.seg, err))
	}
	if err := w.f.Close(); err != nil {
		return w.setErr(fmt.Errorf("tracestore: close segment %d: %w", w.seg, err))
	}
	w.prev = hex.EncodeToString(w.h.Sum(nil)) // now includes the seal line
	w.f, w.bw, w.h = nil, nil, nil
	// Mirror the entries into index.jsonl. The seal already landed, so a
	// crash from here on loses only the cache copy — LoadIndex recovers.
	for _, e := range entries {
		line, err := json.Marshal(e)
		if err != nil {
			return w.setErr(fmt.Errorf("tracestore: index entry: %w", err))
		}
		if _, err := w.idx.Write(append(line, '\n')); err != nil {
			return w.setErr(fmt.Errorf("tracestore: index append: %w", err))
		}
	}
	if err := w.idx.Sync(); err != nil {
		return w.setErr(fmt.Errorf("tracestore: index sync: %w", err))
	}
	w.seg++
	return nil
}

// indexEntries snapshots the open segment's per-scope index, sorted by
// scope for determinism.
func (w *Writer) indexEntries() []IndexEntry {
	names := make([]string, 0, len(w.scopes))
	for s := range w.scopes {
		names = append(names, s)
	}
	sort.Strings(names)
	out := make([]IndexEntry, 0, len(names))
	for _, s := range names {
		si := w.scopes[s]
		out = append(out, IndexEntry{Segment: w.seg, Scope: s,
			Offset: si.offset, MinStep: si.min, MaxStep: si.max, Events: si.events})
	}
	return out
}

// Close seals the open segment and releases the index file. The Writer is
// unusable afterwards.
func (w *Writer) Close() error {
	sealErr := w.Seal()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.idx != nil {
		// Teardown closes the index file under the lock on purpose, so a
		// racing Seal cannot resurrect it.
		if err := w.idx.Close(); err != nil && sealErr == nil {
			sealErr = fmt.Errorf("tracestore: index close: %w", err)
		}
		w.idx = nil
	}
	if sealErr == nil {
		sealErr = w.err
	}
	return sealErr
}

// Segments returns how many segments have been sealed plus the open one,
// and Events the event count of the open segment — observability for
// logs and tests.
func (w *Writer) Segments() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f != nil {
		return w.seg + 1
	}
	return w.seg
}
