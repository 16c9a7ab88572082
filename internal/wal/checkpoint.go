package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
)

// Checkpoint is a consistent cut of the serving state: the one graph every
// hosted class maintains, the stream position the cut stands at, and for
// each class an opaque state blob (the maintainer's auxiliary structure —
// timestamps, anchors, intervals — serialized by internal/serve). Epoch and
// Batches count the raw updates and the batches the stream had delivered;
// ReplayFrom is the WAL segment sequence at which records NOT covered by
// this checkpoint begin, so recovery is: restore the checkpoint, then
// replay segments >= ReplayFrom.
type Checkpoint struct {
	Epoch      uint64
	Batches    uint64
	ReplayFrom uint64
	Graph      []byte // graph.WriteBinary encoding of the cut's graph
	Algos      []AlgoState
	V2         bool // read from v2: this layout, gob class states (internal/serve converts them)
}

// AlgoState is one algorithm's persisted slice of a checkpoint.
type AlgoState struct {
	Name  string
	State []byte // maintainer state blob (the state codec, see internal/serve)
}

const (
	ckptPrefix  = "checkpoint-"
	ckptSuffix  = ".ckpt2" // v2 and v3 alike
	ckptMagic   = "IGK3"
	ckptMagicV2 = "IGK2"
)

func ckptName(seq uint64) string { return fmt.Sprintf("%s%016d%s", ckptPrefix, seq, ckptSuffix) }

func appendField(buf, f []byte) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(f))), f...)
}

// encode serializes the checkpoint in the v3 format: magic, the stream
// position, the graph, the class states, and one trailing CRC32C over
// everything before it. A single whole-file checksum is enough because a
// checkpoint is written once and read once, atomically.
func (c *Checkpoint) encode() []byte {
	buf := binary.AppendUvarint([]byte(ckptMagic), c.Epoch)
	buf = binary.AppendUvarint(buf, c.Batches)
	buf = binary.AppendUvarint(buf, c.ReplayFrom)
	buf = appendField(buf, c.Graph)
	buf = binary.AppendUvarint(buf, uint64(len(c.Algos)))
	for _, a := range c.Algos {
		buf = appendField(appendField(buf, []byte(a.Name)), a.State)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// decodeCheckpoint parses and verifies an encoded checkpoint of either
// format. Corruption anywhere — including a truncated write — yields an
// error, never a panic, and what decodes re-encodes to the same bytes.
func decodeCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) < len(ckptMagic)+4 {
		return nil, fmt.Errorf("wal: checkpoint too short (%d bytes)", len(data))
	}
	body, crc := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, castagnoli) != crc {
		return nil, fmt.Errorf("wal: checkpoint checksum mismatch")
	}
	c := &Checkpoint{V2: string(body[:len(ckptMagic)]) == ckptMagicV2}
	if !c.V2 && string(body[:len(ckptMagic)]) != ckptMagic {
		return nil, fmt.Errorf("wal: bad checkpoint magic")
	}
	body = body[len(ckptMagic):]
	var err error
	next := func() uint64 {
		v, n := binary.Uvarint(body)
		if err == nil && (n <= 0 || n != len(binary.AppendUvarint(nil, v))) {
			err = fmt.Errorf("wal: truncated or overlong checkpoint varint")
		}
		if err != nil {
			return 0
		}
		body = body[n:]
		return v
	}
	// field copies out of the file's backing array, so callers can hold
	// the blobs without pinning the whole file; an empty one is not nil.
	field := func() []byte {
		ln := next()
		if err == nil && ln > uint64(len(body)) {
			err = fmt.Errorf("wal: checkpoint field length %d exceeds remaining %d bytes", ln, len(body))
		}
		if err != nil {
			return nil
		}
		f := append([]byte{}, body[:ln]...)
		body = body[ln:]
		return f
	}
	c.Epoch, c.Batches, c.ReplayFrom = next(), next(), next()
	c.Graph = field()
	nalgos := next() // each class takes two bytes at least, so err ends the loop
	for i := uint64(0); i < nalgos && err == nil; i++ {
		c.Algos = append(c.Algos, AlgoState{Name: string(field()), State: field()})
	}
	if err != nil {
		return nil, err
	} else if len(body) != 0 {
		return nil, fmt.Errorf("wal: %d trailing bytes after checkpoint", len(body))
	}
	return c, nil
}

// WriteCheckpoint atomically persists c into dir in the v3 format, named by
// its epoch: write to a temp file, fsync it, rename into place, fsync the
// directory. A crash at any point leaves either the complete new checkpoint
// or no trace of it — never a half-written one under the final name.
func WriteCheckpoint(dir string, c *Checkpoint) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	final := filepath.Join(dir, ckptName(c.Epoch))
	tmp, err := os.CreateTemp(dir, ckptPrefix+"tmp-*")
	if err != nil {
		return "", err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(c.encode()); err != nil {
		tmp.Close()
		return "", err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return "", err
	}
	if err := tmp.Close(); err != nil {
		return "", err
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return "", err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync() // make the rename itself durable
		d.Close()
	}
	return final, nil
}

// checkpointFiles lists the checkpoint files in dir, oldest first: by
// their zero-padded stream epochs, whatever their format.
func checkpointFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir) // sorted by name
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if ok, _ := filepath.Match(ckptPrefix+strings.Repeat("[0-9]", 16)+ckptSuffix, e.Name()); ok {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

// LatestCheckpoint loads the newest valid checkpoint in dir, scanning
// backwards past any corrupt or torn ones (a crash during checkpointing
// must not take recovery down with it). It returns (nil, nil) when no
// valid checkpoint exists — recovery then replays the WAL from the
// beginning.
func LatestCheckpoint(dir string) (*Checkpoint, error) {
	names, err := checkpointFiles(dir)
	if err != nil {
		return nil, err
	}
	for i := len(names) - 1; i >= 0; i-- {
		data, err := os.ReadFile(filepath.Join(dir, names[i]))
		if err != nil {
			return nil, err
		}
		if c, err := decodeCheckpoint(data); err == nil {
			return c, nil
		}
		// Corrupt: fall back to the previous checkpoint.
	}
	return nil, nil
}

// PruneCheckpoints removes all but the newest keep checkpoints. Keeping at
// least two means a checkpoint corrupted in place still leaves a recovery
// path.
func PruneCheckpoints(dir string, keep int) error {
	names, err := checkpointFiles(dir)
	if err != nil {
		return err
	}
	if keep < 1 {
		keep = 1
	}
	for len(names) > keep {
		if err := os.Remove(filepath.Join(dir, names[0])); err != nil {
			return err
		}
		names = names[1:]
	}
	return nil
}
