package wal

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
)

// This file is the log-shipping surface of the WAL: a primary exposes
// its segments (and latest checkpoint) over HTTP through StreamHandler,
// and a follower replays its local, continuously-growing copy through a
// Tail — an incremental frame scanner that remembers its position and
// emits each record exactly once as bytes arrive. Together they turn the
// recovery substrate of PR 4 into a replication substrate: a warm
// replica is just a process whose data directory is a shipped copy of
// the primary's, replaying the tail forever instead of once at startup.

// SegmentName returns the on-disk file name of segment seq — the name a
// follower must store shipped bytes under so recovery and Tail find
// them.
func SegmentName(seq uint64) string { return segName(seq) }

// CheckpointName returns the on-disk file name of the checkpoint with
// the given sequence number.
func CheckpointName(seq uint64) string { return ckptName(seq) }

// SegmentInfo describes one shippable segment in a stream listing.
type SegmentInfo struct {
	// Seq is the segment's sequence number.
	Seq uint64 `json:"seq"`
	// Size is the segment file's current byte length. For the active
	// segment this grows between listings; for sealed segments it is
	// final.
	Size int64 `json:"size"`
	// Sealed reports whether the segment has been rotated away from:
	// its bytes are immutable and may be shipped to EOF.
	Sealed bool `json:"sealed"`
}

// StreamListing is the JSON body of GET /segments: the shippable state
// of a log directory at one instant.
type StreamListing struct {
	// Active is the sequence number of the segment currently accepting
	// appends.
	Active uint64 `json:"active"`
	// Segments lists every on-disk segment, ascending.
	Segments []SegmentInfo `json:"segments"`
	// CheckpointSeq numbers the newest checkpoint that decodes, the one
	// LatestCheckpoint loads, 0 when there is none. Followers fetch it once
	// at bootstrap so they can start from segment Checkpoint.ReplayFrom
	// instead of needing the (possibly pruned) genesis segments.
	CheckpointSeq uint64 `json:"checkpoint_seq"`
}

// streamChunk caps one segment-fetch response so a follower paging
// through a large segment cannot hold a handler for unbounded time.
const streamChunk = 4 << 20

// StreamHandler serves the log directory for replication:
//
//	GET /segments             StreamListing (JSON)
//	GET /segment/{seq}?off=N  raw segment bytes from offset N (≤ 4 MiB)
//	GET /checkpoint           the bytes of the checkpoint CheckpointSeq names
//
// Mount it under a prefix (e.g. /wal/) with http.StripPrefix. The
// handler reads files the same way recovery does, so a follower sees
// exactly the durable byte stream; reads race appends harmlessly — a
// torn tail frame on the follower simply waits for the next fetch to
// complete it.
func (l *Log) StreamHandler() http.Handler {
	var ck shipped
	mux := http.NewServeMux()
	mux.HandleFunc("GET /segments", func(w http.ResponseWriter, r *http.Request) {
		segs, err := Segments(l.dir)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		active := l.ActiveSeq()
		lst := StreamListing{Active: active}
		for _, seq := range segs {
			fi, err := os.Stat(filepath.Join(l.dir, segName(seq)))
			if err != nil {
				continue // pruned between listing and stat
			}
			lst.Segments = append(lst.Segments, SegmentInfo{Seq: seq, Size: fi.Size(), Sealed: seq < active})
		}
		lst.CheckpointSeq, _ = ck.latest(l.dir)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(lst)
	})
	mux.HandleFunc("GET /segment/{seq}", func(w http.ResponseWriter, r *http.Request) {
		seq, err := strconv.ParseUint(r.PathValue("seq"), 10, 64)
		if err != nil {
			http.Error(w, "bad segment seq", http.StatusBadRequest)
			return
		}
		var off int64
		if s := r.URL.Query().Get("off"); s != "" {
			if off, err = strconv.ParseInt(s, 10, 64); err != nil || off < 0 {
				http.Error(w, "bad off", http.StatusBadRequest)
				return
			}
		}
		f, err := os.Open(filepath.Join(l.dir, segName(seq)))
		if err != nil {
			http.Error(w, "no such segment", http.StatusNotFound)
			return
		}
		defer f.Close()
		if _, err := f.Seek(off, io.SeekStart); err != nil {
			http.Error(w, err.Error(), http.StatusRequestedRangeNotSatisfiable)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		io.Copy(w, io.LimitReader(f, streamChunk))
	})
	mux.HandleFunc("GET /checkpoint", func(w http.ResponseWriter, r *http.Request) {
		_, path := ck.latest(l.dir)
		f, err := os.Open(path) // "" when there is none: an error
		if err != nil {
			http.Error(w, "no checkpoint", http.StatusNotFound)
			return
		}
		defer f.Close()
		w.Header().Set("Content-Type", "application/octet-stream")
		io.Copy(w, f)
	})
	return mux
}

// shipped caches which checkpoint StreamHandler ships, keyed by the newest
// file's name, size and modification time: a follower polls the listing
// every 100 ms, and the primary reads its checkpoints only when that changes.
type shipped struct {
	mu   sync.Mutex
	key  string
	seq  uint64
	path string
}

// latest returns the number and path of the newest checkpoint in dir that
// decodes, or 0 and "" when there is none.
func (s *shipped) latest(dir string) (uint64, string) {
	names, _ := checkpointFiles(dir)
	s.mu.Lock()
	defer s.mu.Unlock()
	key := ""
	if n := len(names); n > 0 {
		if fi, err := os.Stat(filepath.Join(dir, names[n-1])); err == nil {
			key = fmt.Sprint(fi.Name(), fi.Size(), fi.ModTime())
		}
	}
	if key != s.key {
		s.key, s.seq, s.path = key, 0, ""
		for i := len(names) - 1; i >= 0 && s.path == ""; i-- {
			data, _ := os.ReadFile(filepath.Join(dir, names[i]))
			if c, err := decodeCheckpoint(data); err == nil {
				s.seq, s.path = c.Epoch, filepath.Join(dir, names[i])
			}
		}
	}
	return s.seq, s.path
}

// Tail is a follower's incremental reader over a (growing) log
// directory: it remembers the segment and byte offset it has consumed
// up to and, on every Advance, decodes any newly complete, CRC-valid
// frames past that position. A frame that is torn *and* followed by a
// later segment is the rotation signature — the primary sealed the
// segment mid-frame never happens (frames are written whole), so a torn
// tail with a successor means the local copy of the sealed segment is
// still short; Tail waits rather than skipping, because shipping is
// ordered per segment and the bytes will arrive.
type Tail struct {
	dir string
	// Seq and Off are the consume position: the next frame is read from
	// segment Seq at byte offset Off.
	Seq uint64
	Off int64
	// Records counts frames emitted over the Tail's lifetime.
	Records uint64
}

// NewTail returns a tail positioned at the start of segment seq (0
// means the lowest segment present at the first Advance).
func NewTail(dir string, seq uint64) *Tail { return &Tail{dir: dir, Seq: seq} }

// Advance scans forward from the current position, calling fn for every
// whole, CRC-valid frame, and stops at the first incomplete frame (more
// bytes may arrive) or at the end of the newest segment. It returns the
// number of records emitted. A fn error aborts the scan with the
// position already advanced past the consumed frame, and comes back
// naming the record's segment and offset.
func (t *Tail) Advance(fn func(Record) error) (int, error) {
	segs, err := Segments(t.dir)
	if err != nil {
		return 0, err
	}
	if len(segs) == 0 {
		return 0, nil
	}
	if t.Seq == 0 {
		t.Seq = segs[0]
	}
	emitted := 0
	for {
		partial, err := t.scanFrom(fn, &emitted)
		if err != nil {
			return emitted, err
		}
		// Hop to the next segment only on clean end-of-segment with a
		// successor present locally: an incomplete frame means the rest
		// of this segment's bytes are still being shipped (shipping is
		// ordered per segment), so wait rather than skip.
		next, ok := nextSegment(segs, t.Seq)
		if partial || !ok {
			return emitted, nil
		}
		t.Seq, t.Off = next, 0
	}
}

// scanFrom decodes complete frames in the current segment from t.Off,
// advancing the position past each. partial reports whether the scan
// stopped on an incomplete or zero-filled frame (as opposed to clean
// EOF): the bytes that complete or replace it may still be shipped.
func (t *Tail) scanFrom(fn func(Record) error, emitted *int) (partial bool, err error) {
	f, err := os.Open(filepath.Join(t.dir, segName(t.Seq)))
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil // not shipped yet
		}
		return false, err
	}
	defer f.Close()
	if _, err := f.Seek(t.Off, io.SeekStart); err != nil {
		return false, err
	}
	end, why, err := scanFrames(f, t.Off, func(rec Record, at, next int64) error {
		t.Off = next
		t.Records++
		*emitted++
		if fn == nil {
			return nil
		}
		if err := fn(rec); err != nil {
			return fmt.Errorf("wal: tail: record at %s:%d: %w", segName(t.Seq), at, err)
		}
		return nil
	})
	switch why {
	case frameIncomplete:
		return true, nil
	case frameCorrupt:
		return false, fmt.Errorf("wal: tail: corrupt frame at %s:%d", segName(t.Seq), end)
	case frameUndecodable:
		return false, fmt.Errorf("wal: tail: %s:%d: %w", segName(t.Seq), end, err)
	}
	return false, err
}

// nextSegment returns the smallest listed segment strictly above seq.
func nextSegment(segs []uint64, seq uint64) (uint64, bool) {
	for _, s := range segs {
		if s > seq {
			return s, true
		}
	}
	return 0, false
}
