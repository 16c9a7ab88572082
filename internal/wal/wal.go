// Package wal is the durability layer of the serving stack: an
// append-only, CRC32C-framed, fsync-batched write-ahead log of update
// batches, plus graph+state checkpoints (checkpoint.go). Together they
// make the maintained incremental state recoverable: on restart, the
// latest checkpoint restores the graph and each algorithm's auxiliary
// state, and replaying the log tail re-applies every update the
// checkpoint had not yet absorbed. Theorem 1's correctness guarantee is
// only as good as the state it is maintained over; this package is what
// keeps that state from silently diverging across crashes.
//
// Layout of a data dir:
//
//	wal-0000000000000001.seg    frame stream, rotated by size
//	wal-0000000000000002.seg    the active segment
//	checkpoint-00000000000012c8.ckpt
//
// Each frame is [len u32][crc32c u32][payload]; the payload is one
// Record (an algo tag, empty in every record written now, plus a
// binary-encoded batch). Appends are
// group-committed: concurrent appenders coalesce onto one fsync, so a
// burst of small updates pays one disk flush, not one each. On open, a
// torn tail frame — the signature of a crash mid-write — is truncated
// away; everything before it is the durable prefix.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"incgraph/internal/graph"
)

// SyncPolicy selects when appends reach the disk platter.
type SyncPolicy int

const (
	// SyncAlways fsyncs before Append returns (group-committed): an
	// acknowledged update survives kill -9. The default.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs from a background flusher every Options.Interval;
	// a crash loses at most one interval of acknowledged updates.
	SyncInterval
	// SyncNever leaves flushing to the OS — fastest, weakest.
	SyncNever
)

// String returns the policy's flag spelling ("always", "interval", "never").
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParseSyncPolicy maps the -fsync flag values onto a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always|interval|never)", s)
}

// Record is one logged unit: an update batch, which reaches every hosted
// class.
type Record struct {
	// Algo is the class a record was once targeted at. Nothing writes one
	// now, since every update reaches every class; it stays in the format
	// so that older logs still decode, and replay refuses a record that
	// carries one (CheckBroadcast).
	Algo  string
	Batch graph.Batch
	// Trace is the W3C trace ID of the request that logged this record
	// (all-zero = untraced). It travels with shipped segments so a
	// replica's replay spans join the original request's timeline.
	Trace [16]byte
	// Nanos is the wall-clock append time in unix nanoseconds (0 =
	// unstamped legacy record). Followers subtract it from their own
	// clock to report seconds-behind-primary.
	Nanos int64
}

// CheckBroadcast returns an error naming r's target if r has one. Every
// update reaches every class, so a replay refuses a targeted record rather
// than broadcast it, or apply it to one class only.
func (r Record) CheckBroadcast() error {
	if r.Algo != "" {
		return fmt.Errorf("wal: record targets class %q, but every update reaches every class", r.Algo)
	}
	return nil
}

// recordTailLen is the fixed optional suffix carrying Trace and Nanos.
const recordTailLen = 16 + 8

// Options tune a log.
type Options struct {
	// SegmentBytes rotates the active segment once it exceeds this size.
	// Default 64 MiB.
	SegmentBytes int64
	// Policy is the fsync policy; Interval applies under SyncInterval
	// (default 5ms).
	Policy   SyncPolicy
	Interval time.Duration
	// SyncHook, when set, is consulted before every fsync; returning true
	// skips it. This is the fault-injection point internal/serve/faults
	// drives to simulate disks that lie — production leaves it nil.
	SyncHook func() bool
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.Interval <= 0 {
		o.Interval = 5 * time.Millisecond
	}
	return o
}

// castagnoli is the CRC32C table; CRC32C has hardware support on both
// amd64 and arm64, so framing costs well under a ns/byte.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxFramePayload bounds a frame read so a corrupted length field cannot
// force a giant allocation.
const maxFramePayload = 256 << 20

const (
	segPrefix = "wal-"
	segSuffix = ".seg"
	// frameHeader is the per-frame overhead: u32 payload length + u32 CRC32C.
	frameHeader = 8
)

func segName(seq uint64) string { return fmt.Sprintf("%s%016d%s", segPrefix, seq, segSuffix) }

// parseSegName extracts the sequence number from a segment file name.
func parseSegName(name string) (uint64, bool) {
	if len(name) != len(segPrefix)+16+len(segSuffix) ||
		name[:len(segPrefix)] != segPrefix || name[len(name)-len(segSuffix):] != segSuffix {
		return 0, false
	}
	var seq uint64
	for _, c := range name[len(segPrefix) : len(segPrefix)+16] {
		if c < '0' || c > '9' {
			return 0, false
		}
		seq = seq*10 + uint64(c-'0')
	}
	return seq, true
}

// Log is an open write-ahead log: one active segment accepting appends,
// older segments immutable.
type Log struct {
	dir string
	opt Options

	mu   sync.Mutex // serializes writes and rotation
	f    *os.File
	seq  uint64 // active segment sequence number
	size int64
	// appendSeq counts appends; syncedSeq is the highest append known to
	// be on disk. Group commit: an appender needing durability syncs up
	// to the CURRENT appendSeq, so every waiter that queued behind one
	// fsync is covered by it.
	appendSeq uint64

	syncMu    sync.Mutex // serializes fsyncs; never held with mu
	syncedSeq uint64

	dirty  chan struct{} // wakes the interval flusher
	quit   chan struct{}
	done   chan struct{}
	closed bool

	// Appends and Syncs count operations for the obs layer (read with
	// Stats; plain fields guarded by the mutexes above).
	appends uint64
	syncs   uint64
}

// Stats reports operation counts for metrics.
func (l *Log) Stats() (appends, syncs uint64) {
	l.mu.Lock()
	appends = l.appends
	l.mu.Unlock()
	l.syncMu.Lock()
	syncs = l.syncs
	l.syncMu.Unlock()
	return
}

// Open opens (or creates) the log in dir. The last existing segment is
// scanned and any torn tail frame is truncated away before appends
// resume on it; a fresh dir starts at segment 1.
func Open(dir string, opt Options) (*Log, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	segs, err := Segments(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opt: opt, seq: 1,
		dirty: make(chan struct{}, 1), quit: make(chan struct{}), done: make(chan struct{})}
	if len(segs) > 0 {
		l.seq = segs[len(segs)-1]
		good, _, err := scanSegment(filepath.Join(dir, segName(l.seq)), nil)
		if err != nil {
			return nil, fmt.Errorf("wal: scanning active segment %d: %w", l.seq, err)
		}
		if err := os.Truncate(filepath.Join(dir, segName(l.seq)), good); err != nil {
			return nil, fmt.Errorf("wal: truncating torn tail of segment %d: %w", l.seq, err)
		}
		l.size = good
	}
	f, err := os.OpenFile(filepath.Join(dir, segName(l.seq)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	l.f = f
	if opt.Policy == SyncInterval {
		go l.flusher()
	} else {
		close(l.done)
	}
	return l, nil
}

// flusher is the SyncInterval background goroutine: it wakes on dirt,
// debounces for Interval, and issues one fsync for everything appended
// meanwhile.
func (l *Log) flusher() {
	defer close(l.done)
	t := time.NewTimer(l.opt.Interval)
	if !t.Stop() {
		<-t.C
	}
	for {
		select {
		case <-l.quit:
			l.syncNow()
			return
		case <-l.dirty:
			t.Reset(l.opt.Interval)
			select {
			case <-t.C:
				l.syncNow()
			case <-l.quit:
				if !t.Stop() {
					<-t.C
				}
				l.syncNow()
				return
			}
		}
	}
}

// EncodeRecord appends the binary encoding of r's payload (not the
// frame) to dst. Untraced, unstamped records keep the legacy layout
// (algo tag + batch); a record carrying a trace ID or timestamp gains a
// fixed 24-byte tail, which legacy decoders never see because the two
// layouts are distinguished by payload length.
func EncodeRecord(dst []byte, r Record) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(r.Algo)))
	dst = append(dst, r.Algo...)
	dst = graph.AppendBatchBinary(dst, r.Batch)
	if r.Trace != ([16]byte{}) || r.Nanos != 0 {
		dst = append(dst, r.Trace[:]...)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(r.Nanos))
	}
	return dst
}

// DecodeRecord parses a record payload. Corrupted input yields an error,
// never a panic. Both layouts decode: legacy records (nothing after the
// batch) yield a zero Trace/Nanos, extended records carry them in a
// fixed-size tail.
func DecodeRecord(data []byte) (Record, error) {
	alen, n := binary.Uvarint(data)
	if n <= 0 || alen > uint64(len(data)-n) || alen > 256 {
		return Record{}, fmt.Errorf("wal: bad algo tag")
	}
	algo := string(data[n : n+int(alen)])
	b, rest, err := graph.DecodeBatchBinary(data[n+int(alen):])
	if err != nil {
		return Record{}, err
	}
	rec := Record{Algo: algo, Batch: b}
	switch len(rest) {
	case 0:
	case recordTailLen:
		copy(rec.Trace[:], rest[:16])
		rec.Nanos = int64(binary.LittleEndian.Uint64(rest[16:]))
	default:
		return Record{}, fmt.Errorf("wal: %d trailing bytes after record", len(rest))
	}
	return rec, nil
}

// Append frames and writes one record, rotating the segment if it grew
// past the size budget, and — under SyncAlways — returns only once the
// record is on disk. Concurrent appenders group-commit: whoever reaches
// the fsync first flushes for everyone queued behind it.
func (l *Log) Append(r Record) error {
	payload := EncodeRecord(nil, r)
	frame := make([]byte, frameHeader, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	frame = append(frame, payload...)

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return errClosed
	}
	if l.size > l.opt.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			l.mu.Unlock()
			return err
		}
	}
	if _, err := l.f.Write(frame); err != nil {
		l.mu.Unlock()
		return err
	}
	l.size += int64(len(frame))
	l.appends++
	l.appendSeq++
	seq := l.appendSeq
	f := l.f
	l.mu.Unlock()

	switch l.opt.Policy {
	case SyncAlways:
		return l.syncTo(f, seq)
	case SyncInterval:
		select {
		case l.dirty <- struct{}{}:
		default:
		}
	}
	return nil
}

var errClosed = errors.New("wal: log closed")

// syncTo ensures append ordinal seq is on disk, sharing fsyncs between
// concurrent callers (group commit).
func (l *Log) syncTo(f *os.File, seq uint64) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.syncedSeq >= seq {
		return nil // somebody else's fsync covered us
	}
	// Read the latest append ordinal: this fsync will cover everything
	// written so far, including appends queued after ours.
	l.mu.Lock()
	latest := l.appendSeq
	l.mu.Unlock()
	if l.opt.SyncHook != nil && l.opt.SyncHook() {
		// Injected fault: pretend the sync happened. The acknowledgement
		// is now a lie, exactly like a disk with a volatile write cache.
		l.syncedSeq = latest
		return nil
	}
	if err := f.Sync(); err != nil {
		return err
	}
	l.syncs++
	l.syncedSeq = latest
	return nil
}

// syncNow flushes the active segment (interval flusher and Close path).
func (l *Log) syncNow() {
	l.mu.Lock()
	f, latest := l.f, l.appendSeq
	l.mu.Unlock()
	if f != nil {
		l.syncTo(f, latest)
	}
}

// Sync forces everything appended so far onto disk.
func (l *Log) Sync() error {
	l.mu.Lock()
	f, latest := l.f, l.appendSeq
	closed := l.closed
	l.mu.Unlock()
	if closed || f == nil {
		return errClosed
	}
	return l.syncTo(f, latest)
}

// Rotate closes the active segment and starts a fresh one, returning the
// new segment's sequence number — the checkpoint's replay-from handle:
// records at or after it are not covered by a checkpoint taken at the
// moment of rotation.
func (l *Log) Rotate() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, errClosed
	}
	if err := l.rotateLocked(); err != nil {
		return 0, err
	}
	return l.seq, nil
}

func (l *Log) rotateLocked() error {
	if l.opt.SyncHook == nil || !l.opt.SyncHook() {
		if err := l.f.Sync(); err != nil {
			return err
		}
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	l.seq++
	f, err := os.OpenFile(filepath.Join(l.dir, segName(l.seq)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	l.f, l.size = f, 0
	return nil
}

// ActiveSeq returns the active segment's sequence number.
func (l *Log) ActiveSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// RemoveBefore deletes segments with sequence numbers strictly below
// seq — those fully covered by a checkpoint.
func (l *Log) RemoveBefore(seq uint64) error {
	segs, err := Segments(l.dir)
	if err != nil {
		return err
	}
	for _, s := range segs {
		if s < seq {
			if err := os.Remove(filepath.Join(l.dir, segName(s))); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close flushes and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.quit)
	<-l.done // interval flusher does a final sync; closed immediately otherwise
	if l.opt.Policy != SyncInterval {
		l.syncNow()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

// Segments lists the segment sequence numbers present in dir, ascending.
func Segments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var segs []uint64
	for _, e := range ents {
		if seq, ok := parseSegName(e.Name()); ok {
			segs = append(segs, seq)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

// scanSegment reads frames from a segment file, calling fn (when non-nil)
// for each decodable record. It returns the byte offset of the end of the
// last whole, CRC-valid frame — the durable prefix — and the record
// count. A torn or corrupt tail is not an error; it is where the prefix
// ends, and so is an empty frame (a zero-filled tail). A whole, CRC-valid
// frame that does not decode is an error naming the record: no crash
// writes one, so it is a foreign or hostile record — a weight outside
// [0, Infinity), say — and ending the prefix there would drop it and
// every record after it without a word. So is an error from fn.
func scanSegment(path string, fn func(Record) error) (good int64, n int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	var off int64
	var hdr [frameHeader]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return off, n, nil // clean EOF or torn header: prefix ends here
		}
		plen := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if plen > maxFramePayload {
			return off, n, nil // corrupt length: treat as torn
		}
		payload := make([]byte, plen)
		if _, err := io.ReadFull(br, payload); err != nil {
			return off, n, nil // torn payload
		}
		if crc32.Checksum(payload, castagnoli) != want {
			return off, n, nil // corrupt frame
		}
		if plen == 0 {
			return off, n, nil // a zero-filled tail, not a record
		}
		rec, derr := DecodeRecord(payload)
		if derr != nil {
			return off, n, fmt.Errorf("record %d at offset %d: %w", n+1, off, derr)
		}
		off += int64(frameHeader) + int64(plen)
		n++
		if fn != nil {
			if err := fn(rec); err != nil {
				return off, n, fmt.Errorf("record %d: %w", n, err)
			}
		}
	}
}

// Replay streams every record in segments with sequence number >= from,
// in order, to fn. The segments must run consecutively from segment from
// (from the first segment present when from is 0): a missing one is an
// error naming it, before any record is replayed, because the records it
// held would otherwise be skipped without a word. Replay stops at the first torn or corrupt frame: if
// that happens in the final segment it is the expected crash signature
// and replay ends cleanly; anywhere earlier it means later segments hold
// records beyond a corruption hole, and Replay returns both the count
// replayed so far and an error so the operator knows the durable prefix
// ended early.
func Replay(dir string, from uint64, fn func(Record) error) (int, error) {
	segs, err := Segments(dir)
	if err != nil {
		return 0, err
	}
	segs = segs[sort.Search(len(segs), func(i int) bool { return segs[i] >= from }):]
	if from == 0 && len(segs) > 0 {
		from = segs[0]
	}
	want := from // then the first segment of the run from from not present
	for _, seq := range segs {
		if seq != want {
			break
		}
		want++
	}
	if from > 0 && (len(segs) == 0 || want != from+uint64(len(segs))) {
		return 0, fmt.Errorf("wal: segment %d missing: a replay from segment %d reads every segment after it", want, from)
	}
	total := 0
	for i, seq := range segs {
		path := filepath.Join(dir, segName(seq))
		fi, err := os.Stat(path)
		if err != nil {
			return total, err
		}
		good, n, err := scanSegment(path, fn)
		total += n
		if err != nil {
			return total, fmt.Errorf("wal: replaying segment %d: %w", seq, err)
		}
		if good < fi.Size() && i != len(segs)-1 {
			return total, fmt.Errorf("wal: segment %d corrupt at offset %d with %d later segment(s): durable prefix truncated", seq, good, len(segs)-1-i)
		}
		if good < fi.Size() {
			break // torn tail of the final segment: the crash point
		}
	}
	return total, nil
}
