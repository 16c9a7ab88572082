package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
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
	// V1 marks a checkpoint decoded from the format that held a graph
	// and a stream position per class, for migration only: Epoch is then
	// the sum of the classes' epochs, Batches is 0, and each State is the
	// class's envelope of its position and blob (see internal/serve), or
	// empty for a class whose graph was not most classes' (majorityV1).
	V1 bool
}

// AlgoState is one algorithm's persisted slice of a checkpoint.
type AlgoState struct {
	Name  string
	State []byte // maintainer state blob (gob, see internal/serve)
}

const (
	ckptPrefix   = "checkpoint-"
	ckptSuffix   = ".ckpt2"
	ckptSuffixV1 = ".ckpt"
	ckptMagic    = "IGK2"
	ckptMagicV1  = "IGK1"
	// maxCkptBlob bounds any single length field read from a checkpoint so
	// a corrupt file cannot force a giant allocation.
	maxCkptBlob = 1 << 32
)

// errSplitCut marks a v1 checkpoint with no graph most of its classes hold:
// not corrupt, so recovery must not fall back past it on its own.
var errSplitCut = errors.New("wal: v1 checkpoint holds more than one graph")

func ckptName(seq uint64) string { return fmt.Sprintf("%s%016d%s", ckptPrefix, seq, ckptSuffix) }

func appendField(buf, f []byte) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(f))), f...)
}

// encode serializes the checkpoint in the v2 format: magic, the stream
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
// error, never a panic, and what decodes re-encodes to the same bytes
// (but for the class states majorityV1 drops from a v1 checkpoint).
func decodeCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) < len(ckptMagic)+4 {
		return nil, fmt.Errorf("wal: checkpoint too short (%d bytes)", len(data))
	}
	body, crc := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, castagnoli) != crc {
		return nil, fmt.Errorf("wal: checkpoint checksum mismatch")
	}
	c := &Checkpoint{V1: string(body[:len(ckptMagic)]) == ckptMagicV1}
	if !c.V1 && string(body[:len(ckptMagic)]) != ckptMagic {
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
		if err == nil && (ln > maxCkptBlob || ln > uint64(len(body))) {
			err = fmt.Errorf("wal: checkpoint field length %d exceeds remaining %d bytes", ln, len(body))
		}
		if err != nil {
			return nil
		}
		f := append([]byte{}, body[:ln]...)
		body = body[ln:]
		return f
	}
	c.Epoch = next()
	if !c.V1 {
		c.Batches = next()
	}
	c.ReplayFrom = next()
	if !c.V1 {
		c.Graph = field()
	}
	var graphs [][]byte // v1: each class's graph
	nalgos := next()    // each class takes two bytes at least, so err ends the loop
	for i := uint64(0); i < nalgos && err == nil; i++ {
		a := AlgoState{Name: string(field())}
		if c.V1 {
			graphs = append(graphs, field())
		}
		a.State = field()
		c.Algos = append(c.Algos, a)
	}
	if err != nil {
		return nil, err
	} else if len(body) != 0 {
		return nil, fmt.Errorf("wal: %d trailing bytes after checkpoint", len(body))
	} else if err = c.majorityV1(graphs); err != nil {
		return nil, err
	}
	return c, nil
}

// majorityV1 takes the graph a strict majority of a v1 checkpoint's classes
// hold as the cut's and drops every other class's state (a v1 writer
// checkpointed a quarantined class's stale graph; targeted updates once let
// graphs differ): recovery rebuilds such a class by a batch run, as it does
// one quarantined at a v2 cut. With no majority the file is refused.
func (c *Checkpoint) majorityV1(graphs [][]byte) error {
	held, names := map[string]int{}, []string{}
	for i, g := range graphs {
		if held[string(g)]++; 2*held[string(g)] > len(graphs) {
			c.Graph = g
		}
		names = append(names, c.Algos[i].Name)
	}
	if len(graphs) > 0 && c.Graph == nil {
		return fmt.Errorf("%w and no graph is most classes' (%s): written while a class was quarantined or "+
			"could take targeted updates; move the file aside to recover from the checkpoint before it",
			errSplitCut, strings.Join(names, ", "))
	}
	for i, g := range graphs {
		if !bytes.Equal(g, c.Graph) {
			c.Algos[i].State = []byte{}
		}
	}
	return nil
}

// WriteCheckpoint atomically persists c into dir in the v2 format, named by
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

// checkpointFiles lists the checkpoint files in dir, oldest first: every v1
// file (numbered by the sum of the class epochs, which says nothing about
// its age) before every v2 one, each format by its zero-padded number.
func checkpointFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir) // sorted by name
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	var names []string
	for _, suffix := range []string{ckptSuffixV1, ckptSuffix} {
		for _, e := range ents {
			if ok, _ := filepath.Match(ckptPrefix+strings.Repeat("[0-9]", 16)+suffix, e.Name()); ok {
				names = append(names, e.Name())
			}
		}
	}
	return names, nil
}

// LatestCheckpoint loads the newest valid checkpoint in dir, scanning
// backwards past any corrupt or torn ones (a crash during checkpointing
// must not take recovery down with it) and reading a v1 file only when no
// v2 file decodes. It returns (nil, nil) when no valid checkpoint exists —
// recovery then replays the WAL from the beginning — and an error naming
// a v1 checkpoint with no graph most classes hold, which is not corrupt.
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
		} else if errors.Is(err, errSplitCut) {
			return nil, fmt.Errorf("%s: %w", names[i], err)
		}
		// Corrupt: fall back to the previous checkpoint.
	}
	return nil, nil
}

// PruneCheckpoints removes all but the newest keep checkpoints, v1 files
// counting as older than every v2 file. Keeping at least two means a
// checkpoint corrupted in place still leaves a recovery path.
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
