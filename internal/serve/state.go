package serve

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"incgraph/internal/graph"
)

// classState holds any class's checkpoint state: the class's vectors are
// the fields its registry entry's Vecs name, as the v2 format's gob structs
// named them. The state codec writes them in that order, each as its name (uvarint
// length, bytes), a kind byte (1 int64, 2 int32, 3 bool), a uvarint entry
// count and the entries — minimal zigzag varints, or flags packed eight a
// byte, lowest first, padding zero; a clock is an int64 vector of one
// entry. Each state has one encoding: equal state is equal bytes anywhere.
type classState struct {
	Dist, Labels, TS, Tri      []int64
	Clock                      int64
	R, Articulation            []bool
	Cnt, First, Last, Deg, Num []int32
	Parent, Block              []graph.NodeID
}

func (st *classState) fields() map[string]any {
	return map[string]any{"Dist": &st.Dist, "Labels": &st.Labels, "TS": &st.TS, "Tri": &st.Tri,
		"Clock": &st.Clock, "R": &st.R, "Articulation": &st.Articulation, "Cnt": &st.Cnt, "First": &st.First,
		"Last": &st.Last, "Deg": &st.Deg, "Num": &st.Num, "Parent": &st.Parent, "Block": &st.Block}
}

// appendState appends the vectors names names, of st, to buf.
func appendState(buf []byte, names []string, st *classState) []byte {
	fields := st.fields()
	for _, name := range names {
		buf = append(binary.AppendUvarint(buf, uint64(len(name))), name...)
		switch p := fields[name].(type) {
		case *int64:
			buf = appendVarints(append(buf, 1), []int64{*p})
		case *[]int64:
			buf = appendVarints(append(buf, 1), *p)
		case *[]int32:
			buf = appendVarints(append(buf, 2), *p)
		case *[]graph.NodeID:
			buf = appendVarints(append(buf, 2), *p)
		case *[]bool:
			buf = binary.AppendUvarint(append(buf, 3), uint64(len(*p)))
			for k, f := range *p {
				if k%8 == 0 {
					buf = append(buf, 0)
				}
				if f {
					buf[len(buf)-1] |= 1 << (k % 8)
				}
			}
		}
	}
	return buf
}

func appendVarints[T ~int32 | ~int64](buf []byte, xs []T) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(xs)))
	for _, x := range xs {
		buf = binary.AppendVarint(buf, int64(x))
	}
	return buf
}

// decodeState reads the vectors names names from data into st, taking only
// what appendState writes back: a vector unknown, missing, repeated, out of
// order or of another kind, or another encoding of the same values (an
// overlong varint, a set padding bit, an int32 out of range, trailing
// bytes), is refused, and no vector outgrows what the bytes left can hold.
func decodeState(data []byte, names []string, st *classState) error {
	fields, in := st.fields(), data
	for len(in) > 0 {
		ln, ok := uvarint(&in)
		if !ok || ln >= uint64(len(in)) { // the name, then at least a kind byte
			return fmt.Errorf("serve: state vectors truncated")
		}
		name := string(in[:ln])
		in = in[ln+1:] // the kind byte is the re-encoding's to check
		n, ok := uvarint(&in)
		switch p := fields[name].(type) {
		case nil:
			return fmt.Errorf("serve: unknown state vector %q", name)
		case *int64:
			var x []int64
			if x, ok = varints[int64](&in, n, ok); ok && n == 1 {
				*p = x[0]
			}
		case *[]int64:
			*p, ok = varints[int64](&in, n, ok)
		case *[]int32:
			*p, ok = varints[int32](&in, n, ok)
		case *[]graph.NodeID:
			*p, ok = varints[graph.NodeID](&in, n, ok)
		case *[]bool:
			if ok = ok && n <= 8*uint64(len(in)); ok {
				b := make([]bool, n)
				for k := range b {
					b[k] = in[k/8]>>(k%8)&1 == 1
				}
				*p, in = b, in[(n+7)/8:]
			}
		}
		if !ok {
			return fmt.Errorf("serve: state vector %s truncated", name)
		}
	}
	if !bytes.Equal(appendState(make([]byte, 0, len(data)), names, st), data) {
		return fmt.Errorf("serve: state is not the encoding of vectors %v", names)
	}
	return nil
}

func uvarint(in *[]byte) (uint64, bool) {
	x, n := binary.Uvarint(*in)
	*in = (*in)[max(n, 0):]
	return x, n > 0
}

// varints reads n zigzag varints as T from *in, once it has checked that n
// bytes are left. What T truncates is decodeState's re-encoding to refuse.
func varints[T ~int32 | ~int64](in *[]byte, n uint64, ok bool) ([]T, bool) {
	b := *in
	if !ok || n > uint64(len(b)) {
		return nil, false
	}
	xs := make([]T, n)
	for k := range xs {
		x, m := binary.Varint(b)
		if m <= 0 {
			return nil, false
		}
		xs[k], b = T(x), b[m:]
	}
	*in = b
	return xs, true
}
