// Package matchfile serializes a materialized fact table (match.Set) to a
// compact binary file and streams it back.
//
// The paper's methodology pre-evaluates the query tree pattern,
// materializes the results into a file, and times only the cubing that
// reads that file (§4). The cube algorithms consume a streaming Source;
// match.Set (in memory) and matchfile.Reader (on disk) both implement it,
// and multi-pass algorithms pay real repeated I/O when streaming from disk.
//
// Format (all integers unsigned varints unless noted):
//
//	magic "X3MF", version byte
//	numAxes, then per axis: liveStates, dictLen, dictLen length-prefixed strings
//	numFacts
//	per fact: key string, measure (8-byte big-endian float bits),
//	          per axis, per live state: setLen, then delta-encoded ValueIDs
package matchfile

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"x3/internal/match"
)

var magic = [4]byte{'X', '3', 'M', 'F'}

const version = 1

// Write serializes the set to w.
func Write(w io.Writer, set *match.Set) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	if err := bw.WriteByte(version); err != nil {
		return err
	}
	numAxes := len(set.Dicts)
	writeUvarint(bw, uint64(numAxes))
	for a := 0; a < numAxes; a++ {
		writeUvarint(bw, uint64(set.LiveStates(a)))
		vals := set.Dicts[a].Values()
		writeUvarint(bw, uint64(len(vals)))
		for _, v := range vals {
			writeString(bw, v)
		}
	}
	writeUvarint(bw, uint64(len(set.Facts)))
	var u8 [8]byte
	for _, f := range set.Facts {
		writeString(bw, f.Key)
		binary.BigEndian.PutUint64(u8[:], math.Float64bits(f.Measure))
		if _, err := bw.Write(u8[:]); err != nil {
			return err
		}
		for a := range f.Axes {
			for _, vs := range f.Axes[a] {
				writeUvarint(bw, uint64(len(vs)))
				prev := uint64(0)
				for i, v := range vs {
					if i == 0 {
						writeUvarint(bw, uint64(v))
					} else {
						writeUvarint(bw, uint64(v)-prev)
					}
					prev = uint64(v)
				}
			}
		}
	}
	return bw.Flush()
}

// WriteFile writes the set to a new file at path.
func WriteFile(path string, set *match.Set) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("matchfile: %w", err)
	}
	if err := Write(f, set); err != nil {
		f.Close()
		return fmt.Errorf("matchfile: write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("matchfile: close %s: %w", path, err)
	}
	return nil
}

// Reader streams facts from a match file. It implements the cube Source
// interface: NumFacts and restartable Each. Every Each pass re-reads the
// file from disk; BytesRead accumulates across passes. One Reader serves
// one Each at a time (TDPAR serializes its base scans for this reason).
type Reader struct {
	path       string
	liveStates []int
	dicts      []*match.Dict
	numFacts   int
	bodyOff    int64
	bytesRead  int64
	// peakBuf is the largest chunk buffer the last Each pass held.
	peakBuf int
}

// Open parses the header of the match file at path.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("matchfile: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("matchfile: %w", err)
	}
	size := fi.Size()
	cr := &countingReader{r: bufio.NewReaderSize(f, 1<<16)}
	var m [4]byte
	if _, err := io.ReadFull(cr, m[:]); err != nil {
		return nil, fmt.Errorf("matchfile: %s: %w", path, err)
	}
	if m != magic {
		return nil, fmt.Errorf("matchfile: %s is not a match file", path)
	}
	ver, err := cr.ReadByte()
	if err != nil {
		return nil, err
	}
	if ver != version {
		return nil, fmt.Errorf("matchfile: %s: unsupported version %d", path, ver)
	}
	r := &Reader{path: path}
	numAxes, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, err
	}
	if numAxes == 0 || numAxes > 64 {
		return nil, fmt.Errorf("matchfile: %s: implausible axis count %d", path, numAxes)
	}
	// Every fact spends at least a key length, its 8-byte measure and one
	// set length per live state, so the remaining bytes bound the counts.
	factMin := uint64(9)
	for a := uint64(0); a < numAxes; a++ {
		live, err := binary.ReadUvarint(cr)
		if err != nil {
			return nil, err
		}
		if live > uint64(size) {
			return nil, fmt.Errorf("matchfile: %s: implausible live state count %d", path, live)
		}
		factMin += live
		r.liveStates = append(r.liveStates, int(live))
		dlen, err := binary.ReadUvarint(cr)
		if err != nil {
			return nil, err
		}
		d := match.NewDict()
		for i := uint64(0); i < dlen; i++ {
			s, err := readString(cr, size-cr.n)
			if err != nil {
				return nil, err
			}
			d.ID(s)
		}
		r.dicts = append(r.dicts, d)
	}
	nf, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, err
	}
	if nf > uint64(size-cr.n)/factMin {
		return nil, fmt.Errorf("matchfile: %s: implausible fact count %d", path, nf)
	}
	r.numFacts = int(nf)
	r.bodyOff = cr.n
	return r, nil
}

// NumFacts returns the number of facts in the file.
func (r *Reader) NumFacts() int { return r.numFacts }

// Dicts returns the per-axis dictionaries stored in the file.
func (r *Reader) Dicts() []*match.Dict { return r.dicts }

// LiveStates returns the number of live ladder states of axis a.
func (r *Reader) LiveStates(a int) int { return r.liveStates[a] }

// BytesRead returns the total bytes read across all Each passes.
func (r *Reader) BytesRead() int64 { return r.bytesRead }

// chunkSize is the read size of one Each pass's buffer.
const chunkSize = 1 << 16

// Each streams every fact to fn in file order. The *Fact (and its slices)
// is reused between calls: fn must not retain it.
//
// A pass opens the file and reads its body in 64 KiB chunks into one
// buffer, allocated per pass; facts are decoded straight from the buffer.
// A record cut by a chunk boundary moves to the buffer's front before the
// next read, and a record larger than the buffer doubles it, never past
// the body's size. A Reader runs one Each at a time.
func (r *Reader) Each(fn func(*match.Fact) error) error {
	f, err := os.Open(r.path)
	if err != nil {
		return fmt.Errorf("matchfile: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("matchfile: %w", err)
	}
	if _, err := f.Seek(r.bodyOff, io.SeekStart); err != nil {
		return err
	}
	c := &chunks{f: f, left: max(fi.Size()-r.bodyOff, 0)}
	c.buf = make([]byte, min(c.left, chunkSize))
	var consumed int64
	defer func() {
		r.bytesRead += consumed + r.bodyOff
		r.peakBuf = len(c.buf)
	}()

	fact := &match.Fact{Axes: make([][][]match.ValueID, len(r.liveStates))}
	for a, live := range r.liveStates {
		fact.Axes[a] = make([][]match.ValueID, live)
	}
	for i := 0; i < r.numFacts; i++ {
		for {
			n := decodeFact(c.buf[c.lo:c.hi], fact)
			if n > 0 {
				c.lo += n
				consumed += int64(n)
				break
			}
			if n < 0 {
				return fmt.Errorf("matchfile: fact %d: malformed varint", i)
			}
			more, err := c.fill()
			if err != nil {
				return fmt.Errorf("matchfile: fact %d: %w", i, err)
			}
			if !more {
				return fmt.Errorf("matchfile: fact %d: %w", i, io.ErrUnexpectedEOF)
			}
		}
		fact.ID = int64(i)
		if err := fn(fact); err != nil {
			return err
		}
	}
	return nil
}

// chunks is one Each pass's read buffer: buf[lo:hi] holds read but
// undecoded bytes, and left counts the body bytes not yet read.
type chunks struct {
	f      io.Reader
	buf    []byte
	lo, hi int
	left   int64
}

// fill moves the undecoded tail to the buffer's front and reads after it,
// doubling the buffer (up to the bytes the tail and the rest of the body
// hold) when the tail already fills it. It reports false when the body
// has no more bytes.
func (c *chunks) fill() (bool, error) {
	if c.left == 0 {
		return false, nil
	}
	c.hi = copy(c.buf, c.buf[c.lo:c.hi])
	c.lo = 0
	if c.hi == len(c.buf) {
		grown := make([]byte, min(int64(2*len(c.buf)), int64(c.hi)+c.left))
		copy(grown, c.buf[:c.hi])
		c.buf = grown
	}
	want := min(int64(len(c.buf)-c.hi), c.left)
	n, err := io.ReadFull(c.f, c.buf[c.hi:c.hi+int(want)])
	c.hi += n
	c.left -= int64(n)
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		c.left = 0 // the file shrank since the pass began
		return n > 0, nil
	}
	return n > 0, err
}

// decodeFact decodes one fact record from the front of b into fact (all
// but its ID) and returns the record's length. As with binary.Uvarint, 0
// means b ends mid-record and a negative value a malformed varint. Every
// length and count is checked against the bytes left in b before it
// sizes anything, so a corrupt one only asks for more input.
func decodeFact(b []byte, fact *match.Fact) int {
	kl, p := uvarint(b, 0)
	if p <= 0 {
		return p
	}
	if kl > uint64(len(b)-p) || uint64(len(b)-p)-kl < 8 {
		return 0
	}
	end := p + int(kl)
	fact.Key = string(b[p:end])
	fact.Measure = math.Float64frombits(binary.BigEndian.Uint64(b[end:]))
	p = end + 8
	for _, states := range fact.Axes {
		for s := range states {
			var n uint64
			if p < len(b) && b[p] < 0x80 { // the one-byte case, inline
				n, p = uint64(b[p]), p+1
			} else if n, p = uvarint(b, p); p <= 0 {
				return p
			}
			// Every value takes at least one byte.
			if n > uint64(len(b)-p) {
				return 0
			}
			// Appending through a pointer to the reused set writes back
			// only its length, so no write barrier runs per value.
			vs := &states[s]
			*vs = (*vs)[:0]
			v := uint64(0)
			for k := uint64(0); k < n; k++ {
				var dv uint64
				if p < len(b) && b[p] < 0x80 {
					dv, p = uint64(b[p]), p+1
				} else if dv, p = uvarint(b, p); p <= 0 {
					return p
				}
				v += dv
				*vs = append(*vs, match.ValueID(v))
			}
		}
	}
	return p
}

// uvarint decodes the varint at b[p:] and returns it with the offset just
// past it; the offset is 0 when b ends first and negative on overflow.
func uvarint(b []byte, p int) (uint64, int) {
	if p < len(b) && b[p] < 0x80 {
		return uint64(b[p]), p + 1
	}
	v, n := binary.Uvarint(b[p:])
	if n <= 0 {
		return 0, n
	}
	return v, p + n
}

type countingReader struct {
	r *bufio.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.n++
	}
	return b, err
}

func writeUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

func writeString(w *bufio.Writer, s string) {
	writeUvarint(w, uint64(len(s)))
	w.WriteString(s)
}

// readString reads a length-prefixed string of at most limit bytes.
func readString(r *countingReader, limit int64) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > uint64(max(limit, 0)) {
		return "", fmt.Errorf("implausible string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
