package matchfile

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"x3/internal/match"
)

// copyFact deep-copies a streamed fact, which Each reuses between calls.
func copyFact(f *match.Fact) *match.Fact {
	c := &match.Fact{ID: f.ID, Key: f.Key, Measure: f.Measure, Axes: make([][][]match.ValueID, len(f.Axes))}
	for a, states := range f.Axes {
		c.Axes[a] = make([][]match.ValueID, len(states))
		for s, vs := range states {
			c.Axes[a][s] = slices.Clone(vs)
		}
	}
	return c
}

// collect runs one Each pass and returns copies of the facts it streamed.
func collect(r *Reader) ([]*match.Fact, error) {
	var out []*match.Fact
	err := r.Each(func(f *match.Fact) error {
		out = append(out, copyFact(f))
		return nil
	})
	return out, err
}

// sameFacts reports the first difference between two fact lists.
func sameFacts(got, want []*match.Fact) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d facts, want %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.ID != w.ID || g.Key != w.Key || math.Float64bits(g.Measure) != math.Float64bits(w.Measure) {
			return fmt.Errorf("fact %d header: %+v, want %+v", i, g, w)
		}
		for a := range w.Axes {
			for s := range w.Axes[a] {
				if !slices.Equal(g.Axes[a][s], w.Axes[a][s]) {
					return fmt.Errorf("fact %d axis %d state %d: %v, want %v", i, a, s, g.Axes[a][s], w.Axes[a][s])
				}
			}
		}
	}
	return nil
}

// referenceBody decodes the body of data, a match file whose header r
// parsed, one byte at a time through binary.ReadUvarint: the stream
// decoder the chunked one replaced, kept as its oracle.
func referenceBody(r *Reader, data []byte) ([]*match.Fact, error) {
	br := bufio.NewReader(bytes.NewReader(data[r.bodyOff:]))
	var out []*match.Fact
	for i := 0; i < r.numFacts; i++ {
		kl, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if kl > uint64(len(data)) {
			return nil, io.ErrUnexpectedEOF
		}
		key := make([]byte, kl)
		var u8 [8]byte
		if _, err := io.ReadFull(br, key); err != nil {
			return nil, err
		}
		if _, err := io.ReadFull(br, u8[:]); err != nil {
			return nil, err
		}
		f := &match.Fact{ID: int64(i), Key: string(key), Measure: math.Float64frombits(binary.BigEndian.Uint64(u8[:]))}
		for _, live := range r.liveStates {
			states := make([][]match.ValueID, live)
			for s := range states {
				n, err := binary.ReadUvarint(br)
				if err != nil {
					return nil, err
				}
				v := uint64(0)
				for k := uint64(0); k < n; k++ {
					dv, err := binary.ReadUvarint(br)
					if err != nil {
						return nil, err
					}
					v += dv
					states[s] = append(states[s], match.ValueID(v))
				}
			}
			f.Axes = append(f.Axes, states)
		}
		out = append(out, f)
	}
	return out, nil
}

// inflate replaces the one-byte varint at data[off] with the varint of v.
func inflate(data []byte, off int, v uint64) []byte {
	out := append([]byte(nil), data[:off]...)
	out = binary.AppendUvarint(out, v)
	return append(out, data[off+1:]...)
}

// FuzzMatchfile opens arbitrary files and streams them. Each must decode
// exactly what the byte-at-a-time reference decodes, or both must fail;
// it must never panic, and its buffer must never outgrow the file. The
// unmutated seed must round-trip the set it was written from.
func FuzzMatchfile(f *testing.F) {
	set := buildSet(f)
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.x3mf")
	if err := WriteFile(path, set); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		f.Fatal(err)
	}
	body := int(r.bodyOff)
	// The first fact's first set length follows its key and measure.
	setLen := body + 1 + len(set.Facts[0].Key) + 8
	f.Add(valid)
	for _, cut := range []int{len(valid) - 1, len(valid) / 2, body + 3, body, 6} {
		f.Add(valid[:cut]) // truncations
	}
	for _, off := range []int{5, body - 1, body + 2, setLen, setLen + 1, len(valid) - 2} {
		flip := slices.Clone(valid)
		flip[off] ^= 0x41 // bit flips
		f.Add(flip)
	}
	for _, v := range []uint64{1 << 40, uint64(len(valid)), math.MaxUint64} {
		f.Add(inflate(valid, setLen, v))   // a set length
		f.Add(inflate(valid, body, v))     // the first key's length
		f.Add(inflate(valid, body-1, v))   // the fact count
		f.Add(inflate(valid, setLen+1, v)) // a value delta
	}
	f.Add(append(slices.Clone(valid[:setLen]), bytes.Repeat([]byte{0xff}, 12)...)) // varint overflow

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "fuzz.x3mf")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(path)
		if err != nil {
			return
		}
		got, err := collect(r)
		if r.peakBuf > len(data) {
			t.Fatalf("buffer grew to %d bytes on a %d-byte file", r.peakBuf, len(data))
		}
		want, refErr := referenceBody(r, data)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "matchfile: ") {
				t.Fatalf("unprefixed error %q", err)
			}
			if refErr == nil {
				t.Fatalf("Each failed (%v) where the reference decoded %d facts", err, len(want))
			}
			return
		}
		if refErr != nil {
			t.Fatalf("Each decoded %d facts where the reference failed: %v", len(got), refErr)
		}
		if err := sameFacts(got, want); err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(data, valid) {
			if err := sameFacts(got, set.Facts); err != nil {
				t.Fatalf("seed does not round-trip: %v", err)
			}
		}
	})
}

// TestChunkBoundaries streams a body several chunks long in which one key
// is bigger than a chunk: records cut by a chunk boundary move to the
// buffer's front, the big one doubles the buffer twice, and every fact
// still round-trips.
func TestChunkBoundaries(t *testing.T) {
	set := buildSet(t)
	var facts []*match.Fact
	for i := 0; len(facts) < 8000; i++ {
		c := copyFact(set.Facts[i%len(set.Facts)])
		c.ID = int64(len(facts))
		c.Key = fmt.Sprintf("%s-%d", c.Key, i)
		if len(facts) == 5000 {
			c.Key = strings.Repeat("k", 3*chunkSize)
		}
		facts = append(facts, c)
	}
	set.Facts = facts
	path := filepath.Join(t.TempDir(), "big.x3mf")
	if err := WriteFile(path, set); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := collect(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameFacts(got, facts); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.peakBuf != 4*chunkSize || int64(r.peakBuf) > fi.Size() {
		t.Errorf("buffer peaked at %d bytes (file %d), want %d", r.peakBuf, fi.Size(), 4*chunkSize)
	}
	if r.BytesRead() != fi.Size() {
		t.Errorf("one pass read %d bytes of a %d-byte file", r.BytesRead(), fi.Size())
	}
}
