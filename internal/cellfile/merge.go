package cellfile

import (
	"bytes"
	"context"
	"encoding/binary"

	"x3/internal/agg"
	"x3/internal/extsort"
	"x3/internal/match"
)

// cellRows adapts a file's cell stream to extsort's merge rows: [4-byte
// big-endian point | key values, 4 bytes big-endian each | encoded
// state]. The point and key prefix compares byte-wise in file order; the
// state trails.
type cellRows struct {
	it  *CellIterator
	row []byte
}

func (c *cellRows) Cur() []byte { return c.row }

func (c *cellRows) Next() error {
	cell, err := c.it.Next()
	if err != nil || cell == nil {
		c.row = nil
		return err
	}
	row := binary.BigEndian.AppendUint32(c.row[:0], cell.Point)
	for _, v := range cell.Key {
		row = binary.BigEndian.AppendUint32(row, uint32(v))
	}
	var enc [agg.EncodedSize]byte
	cell.State.Encode(enc[:])
	c.row = append(row, enc[:]...)
	return nil
}

// rowPrefix returns the merge-ordering prefix (point and key) of a row.
func rowPrefix(row []byte) []byte { return row[:len(row)-agg.EncodedSize] }

// Merge streams the cells of readers, each in file order, to emit in file
// order: extsort's loser-tree k-way merge. Equal cells from several
// readers arrive in reader order. The cell passed to emit, key included,
// is valid only during the call. Blocks are read fresh, bypassing the
// cache (see Iterate). ctx is consulted every few thousand cells; nil
// never cancels.
func Merge(ctx context.Context, readers []*IndexedReader, emit func(Cell) error) error {
	srcs := make([]extsort.MergeSource, len(readers))
	for i, r := range readers {
		c := &cellRows{it: r.Iterate()}
		if err := c.Next(); err != nil {
			return err
		}
		srcs[i] = c
	}
	var key []match.ValueID
	cmp := func(a, b []byte) int { return bytes.Compare(rowPrefix(a), rowPrefix(b)) }
	return extsort.Merge(ctx, srcs, cmp, func(_ int, row []byte) error {
		prefix := rowPrefix(row)
		key = key[:0]
		for i := 4; i < len(prefix); i += 4 {
			key = append(key, match.ValueID(binary.BigEndian.Uint32(prefix[i:])))
		}
		return emit(Cell{Point: binary.BigEndian.Uint32(prefix), Key: key, State: agg.Decode(row[len(prefix):])})
	})
}
