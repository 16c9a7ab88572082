package trace

import (
	"encoding/binary"
	"strings"
)

// The recorder's packed ring. An Event is 224 B with eight string
// headers for the collector to scan; packed, an event of the serving mix
// takes about 37 B, 16 of them its trace ID, in storage that holds no
// pointer: a byte arena of the records laid end to end around a circle,
// which grows as it fills, and an n-slot index of their offsets.
//
// A record is, in order:
//
//	header       one byte: the arg count (bits 0–2), whether a trace ID
//	             follows (bit 3) and the phase (bits 4–5: PhaseComplete,
//	             PhaseInstant, or any other byte, which follows the header)
//	name, cat    a string each
//	track, ts, dur  zigzag varints
//	trace        16 bytes, when the header says so
//	args         for each arg, its key (a string) and its value (a zigzag
//	             varint)
//
// A string is a uvarint: 2i for entry i of the recorder's intern table,
// or, once the table is full, 2·len+1 followed by the string's bytes.
const (
	argMask    = 0x07
	hasTrace   = 1 << 3
	phaseMask  = 3 << 4
	instant    = 1 << 4
	otherPhase = 2 << 4
)

// maxInterned bounds a recorder's intern table. The stack's names,
// categories and arg keys are constants, about fifty of them, so the
// table stays far below the bound; a recorder fed names without end keeps
// the ones past it inline.
const maxInterned = 256

// ring is the packed store of a recorder's last len(off) events. Its
// owner serializes every call.
type ring struct {
	arena []byte   // the retained records end to end, wrapping at its end
	off   []uint32 // off[k] is the arena offset of the record in slot k
	tail  int      // arena offset of the next record
	next  int      // slot of the next record
	count int      // records retained, at most len(off)

	names []string          // the intern table
	index map[string]uint32 // names' inverse
	hits  [256]uint16       // 1 + the index of a string recently looked up, by quickHash
	buf   []byte            // the record being packed or unpacked
}

func newRing(n int) ring {
	return ring{off: make([]uint32, n), index: make(map[string]uint32)}
}

// oldest returns the slot of the oldest retained record.
func (g *ring) oldest() int { return (g.next - g.count + len(g.off)) % len(g.off) }

// used returns the arena bytes the retained records hold. It is below the
// arena's length (push keeps it so), so a record's end never equals its
// start.
func (g *ring) used() int {
	if g.count == 0 {
		return 0
	}
	return (g.tail - int(g.off[g.oldest()]) + len(g.arena)) % len(g.arena)
}

// push packs ev into the arena as the newest record, dropping the oldest
// once len(off) are retained, and grows the arena when the retained
// records and ev would not fit.
func (g *ring) push(ev *Event) {
	rec := g.pack(g.buf[:0], ev)
	g.buf = rec
	if g.count == len(g.off) {
		g.count-- // the oldest is in slot next, which rec takes
	}
	if used := g.used(); used+len(rec) >= len(g.arena) {
		g.grow(used, len(rec))
	}
	g.off[g.next] = uint32(g.tail)
	c := copy(g.arena[g.tail:], rec)
	copy(g.arena, rec[c:])
	g.tail = (g.tail + len(rec)) % len(g.arena)
	g.next = (g.next + 1) % len(g.off)
	g.count++
}

// grow replaces the arena by one a quarter larger than the used bytes
// and need more, the retained records laid out from its start.
func (g *ring) grow(used, need int) {
	size := used + need
	arena := make([]byte, size+size/4+64)
	if g.count > 0 {
		o := g.oldest()
		start := int(g.off[o])
		c := copy(arena, g.arena[start:min(start+used, len(g.arena))])
		copy(arena[c:], g.arena[:used-c])
		for i, k := 0, o; i < g.count; i, k = i+1, (k+1)%len(g.off) {
			g.off[k] = uint32((int(g.off[k]) - start + len(g.arena)) % len(g.arena))
		}
	}
	g.arena, g.tail = arena, used
}

// last decodes the newest n retained records, oldest first.
func (g *ring) last(n int) []Event {
	out := make([]Event, max(min(n, g.count), 0))
	k := (g.next - len(out) + len(g.off)) % len(g.off)
	for i := range out {
		start, end := int(g.off[k]), g.tail
		if k = (k + 1) % len(g.off); k != g.next {
			end = int(g.off[k])
		}
		if end > start {
			out[i] = g.unpack(g.arena[start:end])
			continue
		}
		g.buf = append(append(g.buf[:0], g.arena[start:]...), g.arena[:end]...)
		out[i] = g.unpack(g.buf)
	}
	return out
}

// pack appends ev's record to b. Args past maxArgs, which AddArg never
// keeps, are not recorded.
func (g *ring) pack(b []byte, ev *Event) []byte {
	nargs := min(max(ev.NArgs, 0), maxArgs)
	h := byte(nargs)
	if !ev.Trace.IsZero() {
		h |= hasTrace
	}
	switch ev.Phase {
	case PhaseComplete:
	case PhaseInstant:
		h |= instant
	default:
		h |= otherPhase
	}
	b = append(b, h)
	if h&phaseMask == otherPhase {
		b = append(b, ev.Phase)
	}
	b = g.appendString(b, ev.Name)
	b = g.appendString(b, ev.Cat)
	b = binary.AppendVarint(b, int64(ev.Track))
	b = binary.AppendVarint(b, ev.TS)
	b = binary.AppendVarint(b, ev.Dur)
	if h&hasTrace != 0 {
		b = append(b, ev.Trace[:]...)
	}
	for _, a := range ev.Args[:nargs] {
		b = g.appendString(b, a.Key)
		b = binary.AppendVarint(b, a.Val)
	}
	return b
}

// unpack decodes one record pack wrote.
func (g *ring) unpack(b []byte) Event {
	h := b[0]
	b = b[1:]
	var ev Event
	switch h & phaseMask {
	case 0:
		ev.Phase = PhaseComplete
	case instant:
		ev.Phase = PhaseInstant
	default:
		ev.Phase, b = b[0], b[1:]
	}
	ev.Name, b = g.string(b)
	ev.Cat, b = g.string(b)
	var track int64
	track, b = varint(b)
	ev.Track = int32(track)
	ev.TS, b = varint(b)
	ev.Dur, b = varint(b)
	if h&hasTrace != 0 {
		b = b[copy(ev.Trace[:], b):]
	}
	ev.NArgs = int(h & argMask)
	for i := range ev.Args[:ev.NArgs] {
		ev.Args[i].Key, b = g.string(b)
		ev.Args[i].Val, b = varint(b)
	}
	return ev
}

// appendString appends s as its intern index, interning it while the
// table has room, else inline. The table keeps a copy, so it never pins
// the caller's memory.
//
// A string the stack records is a constant, so most lookups are of a
// string met a few events before: hits answers those without hashing s
// whole, and the map the rest.
func (g *ring) appendString(b []byte, s string) []byte {
	hit := &g.hits[quickHash(s)]
	if i := *hit; i > 0 && g.names[i-1] == s {
		return binary.AppendUvarint(b, uint64(i-1)<<1)
	}
	i, ok := g.index[s]
	if !ok && len(g.names) < maxInterned {
		i, ok = uint32(len(g.names)), true
		s = strings.Clone(s)
		g.names = append(g.names, s)
		g.index[s] = i
	}
	if !ok {
		b = binary.AppendUvarint(b, uint64(len(s))<<1|1)
		return append(b, s...)
	}
	*hit = uint16(i + 1)
	return binary.AppendUvarint(b, uint64(i)<<1)
}

// quickHash mixes s's length and its first, middle and last bytes into a
// byte. Of the stack's fifty-odd strings, five pairs share a slot.
func quickHash(s string) uint8 {
	if s == "" {
		return 0
	}
	x := uint32(len(s)) | uint32(s[0])<<8 | uint32(s[len(s)/2])<<16 | uint32(s[len(s)-1])<<24
	return uint8(x * 0x9e3779b1 >> 24)
}

// string decodes a string appendString wrote.
func (g *ring) string(b []byte) (string, []byte) {
	u, n := binary.Uvarint(b)
	b = b[n:]
	if u&1 == 0 {
		return g.names[u>>1], b
	}
	l := int(u >> 1)
	return string(b[:l]), b[l:]
}

func varint(b []byte) (int64, []byte) {
	v, n := binary.Varint(b)
	return v, b[n:]
}
