// Package cellfile streams computed cube cells to a binary file and reads
// them back. The paper's runs "write the results into files" (§4); a
// FileSink plugs into any cube algorithm as its Sink, so huge cubes never
// accumulate in memory, and a Reader iterates the cells later (e.g. to
// serve roll-up queries from a materialized cube).
//
// Format:
//
//	magic "X3CF", version byte
//	per cell: 0x01 marker, uvarint point id, uvarint key length,
//	          key ValueIDs (uvarints), 32-byte aggregate state
//	trailer: 0x00 marker, uvarint cell count
package cellfile

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"

	"x3/internal/agg"
	"x3/internal/cube"
	"x3/internal/match"
)

var magic = [4]byte{'X', '3', 'C', 'F'}

const version = 1

// FileSink writes cells to a file as they are emitted. It implements
// cube.Sink. Close finalizes the trailer; a file without a valid trailer
// is detected as truncated on read.
type FileSink struct {
	f     *os.File
	w     *bufio.Writer
	cells int64
	err   error
}

// Create opens a new cell file at path.
func Create(path string) (*FileSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cellfile: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<16)
	if _, err := w.Write(magic[:]); err != nil {
		f.Close()
		return nil, err
	}
	if err := w.WriteByte(version); err != nil {
		f.Close()
		return nil, err
	}
	return &FileSink{f: f, w: w}, nil
}

// Cell implements cube.Sink.
func (s *FileSink) Cell(point uint32, key []match.ValueID, st agg.State) error {
	if s.err != nil {
		return s.err
	}
	s.err = s.w.WriteByte(0x01)
	s.writeUvarint(uint64(point))
	s.writeUvarint(uint64(len(key)))
	for _, v := range key {
		s.writeUvarint(uint64(v))
	}
	var enc [agg.EncodedSize]byte
	st.Encode(enc[:])
	if s.err == nil {
		_, s.err = s.w.Write(enc[:])
	}
	s.cells++
	return s.err
}

// Cells returns the number of cells written so far.
func (s *FileSink) Cells() int64 { return s.cells }

// Close writes the trailer and closes the file.
func (s *FileSink) Close() error {
	if s.err != nil {
		s.f.Close()
		return s.err
	}
	if err := s.w.WriteByte(0x00); err != nil {
		s.f.Close()
		return err
	}
	s.writeUvarint(uint64(s.cells))
	if s.err != nil {
		s.f.Close()
		return s.err
	}
	if err := s.w.Flush(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}

func (s *FileSink) writeUvarint(v uint64) {
	if s.err != nil {
		return
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, s.err = s.w.Write(buf[:n])
}

var _ cube.Sink = (*FileSink)(nil)

// Cell is one stored cube cell.
type Cell struct {
	Point uint32
	Key   []match.ValueID
	State agg.State
}

// Each streams every cell of the file at path to fn and verifies the
// trailer count.
func Each(path string, fn func(Cell) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("cellfile: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	var m [4]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return readErr(path, "magic", err)
	}
	if m != magic {
		return fmt.Errorf("%w: %s is not a cell file", ErrCorrupt, path)
	}
	ver, err := r.ReadByte()
	if err != nil {
		return readErr(path, "version", err)
	}
	switch ver {
	case version:
		// the streaming v1 format, handled below
	case indexedVersionCol:
		// the indexed format: delegate to the indexed reader, which knows
		// where the data section ends and the index begins.
		ir, err := OpenIndexed(path)
		if err != nil {
			return err
		}
		defer ir.Close()
		return ir.Each(fn)
	default:
		return fmt.Errorf("%w: %s: unsupported version %d", ErrCorrupt, path, ver)
	}
	var count int64
	for {
		marker, err := r.ReadByte()
		if err != nil {
			return fmt.Errorf("%w: %s: missing trailer (truncated after %d cells)", ErrTruncated, path, count)
		}
		switch marker {
		case 0x00:
			want, err := binary.ReadUvarint(r)
			if err != nil {
				return fmt.Errorf("%w: %s: corrupt trailer: %w", ErrCorrupt, path, err)
			}
			if int64(want) != count {
				return fmt.Errorf("%w: %s: trailer says %d cells, read %d", ErrCorrupt, path, want, count)
			}
			// The trailer must be the last bytes of the file: anything
			// after it means the count only covers a prefix — a forged or
			// misplaced trailer would otherwise silently truncate the
			// cube (the count would "agree" with the cells read so far
			// while disagreeing with the cells actually stored).
			if _, err := r.ReadByte(); !errors.Is(err, io.EOF) {
				return fmt.Errorf("%w: %s: data after trailer (trailer count %d does not cover the whole file)", ErrCorrupt, path, want)
			}
			return nil
		case 0x01:
			// a cell record follows
		default:
			return fmt.Errorf("%w: %s: corrupt record marker 0x%02x", ErrCorrupt, path, marker)
		}
		point, err := binary.ReadUvarint(r)
		if err != nil {
			return readErr(path, fmt.Sprintf("cell %d point", count), err)
		}
		klen, err := binary.ReadUvarint(r)
		if err != nil {
			return readErr(path, fmt.Sprintf("cell %d key length", count), err)
		}
		if klen > 1<<16 {
			return fmt.Errorf("%w: %s: implausible key length %d", ErrCorrupt, path, klen)
		}
		c := Cell{Point: uint32(point), Key: make([]match.ValueID, klen)}
		for i := range c.Key {
			v, err := binary.ReadUvarint(r)
			if err != nil {
				return readErr(path, fmt.Sprintf("cell %d key", count), err)
			}
			c.Key[i] = match.ValueID(v)
		}
		var enc [agg.EncodedSize]byte
		if _, err := io.ReadFull(r, enc[:]); err != nil {
			return fmt.Errorf("%w: %s: cell %d state: %w", ErrTruncated, path, count, err)
		}
		c.State = agg.Decode(enc[:])
		count++
		if err := fn(c); err != nil {
			return err
		}
	}
}

// readErr classifies a failed read of the v1 stream: running out of bytes
// is truncation, an OS error stays itself, and what remains — an overlong
// varint — is corruption.
func readErr(path, what string, err error) error {
	var osErr *fs.PathError
	switch {
	case errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF):
		return fmt.Errorf("%w: %s: %s: %w", ErrTruncated, path, what, err)
	case errors.As(err, &osErr):
		return fmt.Errorf("cellfile: %s: %s: %w", path, what, err)
	}
	return fmt.Errorf("%w: %s: %s: %w", ErrCorrupt, path, what, err)
}
