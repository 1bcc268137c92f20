// Package extsort sorts fixed-width byte rows under a memory limit, the
// way the paper's cube implementations do: an in-memory sort of each
// buffer (an in-place radix sort here, where the paper used quicksort),
// external merge sort (run generation + k-way merge) when the data
// outgrows the buffer (§4).
//
// Rows compare lexicographically as raw bytes, so callers encode sort keys
// big-endian; equal-prefix grouping then falls out of adjacency in the
// sorted stream. The number of external runs is reported in Stats — the
// paper's "exponential number of (external) sorts" effect for the top-down
// algorithms is measured with it.
//
// Parallel (see Sorter.Parallel) overlaps run formation with row intake —
// full buffers are sorted and written by background workers while Add
// keeps filling a recycled buffer — and splits large in-memory sorts into
// concurrently sorted chunks. Either way the merge is a loser-tree
// tournament, and the output byte sequence is identical to a serial sort:
// equal rows are byte-identical, so tie order cannot show.
package extsort

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"x3/internal/fault"
	"x3/internal/obs"
)

// Stats describes one completed sort.
type Stats struct {
	Rows       int64 // rows sorted
	Runs       int   // spilled runs (0 for a pure in-memory sort)
	External   bool  // true when at least one run spilled to disk
	SpillBytes int64 // bytes written to temp files
}

// Sorter accumulates fixed-width rows and returns them in sorted order.
type Sorter struct {
	width int
	limit int64 // buffer cap in bytes; <= 0 means unlimited (never spill)
	dir   string
	par   int // max concurrent sort workers; <= 1 is fully serial

	buf   []byte
	runs  []*os.File
	stats Stats
	done  bool
	reg   *obs.Registry
	inj   *fault.Injector

	// Async run formation (par > 1): full buffers are handed to background
	// goroutines that sort and spill them while Add refills a recycled
	// buffer. mu guards runs, the spill-side stats and spillErr against
	// those workers; sem caps them at par in flight; free recycles their
	// buffers back to Add.
	mu       sync.Mutex
	wg       sync.WaitGroup
	sem      chan struct{}
	free     chan []byte
	spillErr error
}

// New returns a Sorter for rows of the given width. limit caps the
// in-memory buffer in bytes (<= 0: unlimited); dir is where runs spill
// (empty: the OS temp dir).
func New(width int, limit int64, dir string) *Sorter {
	return &Sorter{width: width, limit: limit, dir: dir}
}

// Parallel allows up to n concurrent sort workers: run formation happens
// in the background while rows keep arriving, and a large in-memory sort
// is split into n concurrently sorted chunks merged at Finish. n <= 1
// keeps the sorter fully serial. Call before the first Add.
func (s *Sorter) Parallel(n int) {
	if n > 1 {
		s.par = n
	}
}

// InjectFaults wraps the sorter's spill-file writes (site extsort.spill)
// and run-file reads (site extsort.run) with injected faults. A nil
// injector is a no-op. Call before the first Add.
func (s *Sorter) InjectFaults(inj *fault.Injector) { s.inj = inj }

// Observe attaches a metrics registry: on Finish the sort's statistics are
// folded into the extsort.* keys (sorts, sorts.external, runs.spilled,
// rows.sorted, spill.bytes) and the run-size histogram. A nil registry is
// a no-op.
func (s *Sorter) Observe(reg *obs.Registry) { s.reg = reg }

// observeFinish publishes the completed sort's stats.
func (s *Sorter) observeFinish() {
	if s.reg == nil {
		return
	}
	s.reg.Counter("extsort.sorts").Inc()
	if s.stats.External {
		s.reg.Counter("extsort.sorts.external").Inc()
	}
	s.reg.Counter("extsort.runs.spilled").Add(int64(s.stats.Runs))
	s.reg.Counter("extsort.rows.sorted").Add(s.stats.Rows)
	s.reg.Counter("extsort.spill.bytes").Add(s.stats.SpillBytes)
	s.reg.HDR("extsort.sort.rows").Observe(s.stats.Rows)
}

// ctxErr reports a cancelled sort as an error wrapping ctx.Err() (so
// errors.Is against context.Canceled / context.DeadlineExceeded holds);
// nil ctx never cancels.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("extsort: cancelled: %w", err)
	}
	return nil
}

// Add appends one row. The row is copied. ctx is consulted at spill
// boundaries — the moments Add performs I/O or hands work to background
// goroutines — so a cancelled sort stops spilling promptly without taxing
// the per-row fast path; nil never cancels.
func (s *Sorter) Add(ctx context.Context, row []byte) error {
	if s.done {
		return fmt.Errorf("extsort: Add after Finish")
	}
	if len(row) != s.width {
		return fmt.Errorf("extsort: row is %d bytes, want %d", len(row), s.width)
	}
	s.buf = append(s.buf, row...)
	s.stats.Rows++
	if s.limit > 0 && int64(len(s.buf)) >= s.limit {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		if s.par > 1 {
			return s.spillAsync()
		}
		return s.spill()
	}
	return nil
}

// spill sorts the buffer and writes it out as a new run, serially.
func (s *Sorter) spill() error {
	if len(s.buf) == 0 {
		return nil
	}
	sortRows(s.buf, s.width)
	f, err := writeRun(s.dir, s.buf, s.inj)
	if err != nil {
		return err
	}
	s.recordRun(f, int64(len(s.buf)))
	s.buf = s.buf[:0]
	return nil
}

// spillAsync hands the full buffer to a background worker (at most par in
// flight) and continues with a recycled or fresh one. The worker's error,
// if any, surfaces on a later Add or on Finish.
func (s *Sorter) spillAsync() error {
	s.mu.Lock()
	err := s.spillErr
	s.mu.Unlock()
	if err != nil {
		return err
	}
	if s.sem == nil {
		s.sem = make(chan struct{}, s.par)
		s.free = make(chan []byte, s.par)
	}
	buf := s.buf
	select {
	case b := <-s.free:
		s.buf = b[:0]
	default:
		s.buf = make([]byte, 0, cap(buf))
	}
	s.sem <- struct{}{}
	s.wg.Add(1)
	go func() {
		defer func() { <-s.sem; s.wg.Done() }()
		sortRows(buf, s.width)
		f, err := writeRun(s.dir, buf, s.inj)
		s.mu.Lock()
		if err != nil {
			if s.spillErr == nil {
				s.spillErr = err
			}
		} else {
			s.recordRunLocked(f, int64(len(buf)))
		}
		s.mu.Unlock()
		select {
		case s.free <- buf[:0]:
		default:
		}
	}()
	return nil
}

func (s *Sorter) recordRun(f *os.File, n int64) {
	s.mu.Lock()
	s.recordRunLocked(f, n)
	s.mu.Unlock()
}

func (s *Sorter) recordRunLocked(f *os.File, n int64) {
	s.runs = append(s.runs, f)
	s.stats.Runs++
	s.stats.External = true
	s.stats.SpillBytes += n
}

// writeRun writes one sorted buffer to an unlinked temp file.
func writeRun(dir string, buf []byte, inj *fault.Injector) (*os.File, error) {
	f, err := os.CreateTemp(dir, "x3sort-*")
	if err != nil {
		return nil, fmt.Errorf("extsort: spill: %w", err)
	}
	// Unlink immediately; the open handle keeps the data alive.
	os.Remove(f.Name())
	w := bufio.NewWriter(inj.Writer("extsort.spill", f))
	if _, err := w.Write(buf); err != nil {
		f.Close()
		return nil, fmt.Errorf("extsort: spill write: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, fmt.Errorf("extsort: spill flush: %w", err)
	}
	return f, nil
}

// parallelSortMinRows is the smallest in-memory sort worth splitting
// across workers; below it the chunk-merge overhead dominates.
const parallelSortMinRows = 4096

// Finish sorts any buffered rows and returns an iterator over the full
// sorted sequence plus the sort's statistics. The Sorter cannot be
// reused. ctx is consulted before the final sort and merge setup — the
// expensive tail of an external sort — and a cancelled sort returns a
// wrapped ctx.Err(); nil never cancels.
func (s *Sorter) Finish(ctx context.Context) (*Iterator, Stats, error) {
	if s.done {
		return nil, s.stats, fmt.Errorf("extsort: Finish twice")
	}
	s.done = true
	if s.par > 1 {
		s.wg.Wait() // all background runs recorded (or failed) after this
		if s.spillErr != nil {
			s.closeRuns()
			return nil, s.stats, s.spillErr
		}
	}
	if err := ctxErr(ctx); err != nil {
		s.closeRuns()
		return nil, s.stats, err
	}
	if len(s.runs) == 0 {
		return s.finishMem()
	}
	if err := s.spill(); err != nil {
		s.closeRuns()
		return nil, s.stats, err
	}
	srcs := make([]mergeSource, 0, len(s.runs))
	for _, f := range s.runs {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			s.closeRuns()
			return nil, s.stats, fmt.Errorf("extsort: seek run: %w", err)
		}
		rr := &runReader{r: bufio.NewReaderSize(s.inj.Reader("extsort.run", f), 1<<16), f: f, row: make([]byte, s.width)}
		if err := rr.next(); err != nil { // load the first row
			s.closeRuns()
			return nil, s.stats, err
		}
		if rr.cur() == nil {
			rr.closeFile()
			continue
		}
		srcs = append(srcs, rr)
	}
	s.observeFinish()
	if len(srcs) == 0 {
		return &Iterator{width: s.width}, s.stats, nil
	}
	return &Iterator{width: s.width, srcs: srcs, lt: rowTree(srcs)}, s.stats, nil
}

// finishMem completes a sort that never spilled. The serial path returns
// the zero-copy in-place iterator; with workers, large buffers are split
// into row-aligned chunks sorted concurrently and merged by a loser tree.
func (s *Sorter) finishMem() (*Iterator, Stats, error) {
	rows := 0
	if s.width > 0 {
		rows = len(s.buf) / s.width
	}
	if s.par > 1 && rows >= parallelSortMinRows {
		chunks := s.par
		if chunks > rows {
			chunks = rows
		}
		per := (rows + chunks - 1) / chunks
		srcs := make([]mergeSource, 0, chunks)
		var wg sync.WaitGroup
		for start := 0; start < rows; start += per {
			end := start + per
			if end > rows {
				end = rows
			}
			chunk := s.buf[start*s.width : end*s.width]
			wg.Add(1)
			go func() {
				defer wg.Done()
				sortRows(chunk, s.width)
			}()
			srcs = append(srcs, &memRun{buf: chunk, w: s.width})
		}
		wg.Wait()
		s.observeFinish()
		return &Iterator{width: s.width, srcs: srcs, lt: rowTree(srcs)}, s.stats, nil
	}
	sortRows(s.buf, s.width)
	s.observeFinish()
	return &Iterator{width: s.width, mem: s.buf}, s.stats, nil
}

// closeRuns releases all run files on an error path.
func (s *Sorter) closeRuns() {
	for _, f := range s.runs {
		f.Close()
	}
	s.runs = nil
}

// Iterator yields sorted rows. The slice returned by Next is only valid
// until the following call.
type Iterator struct {
	width int
	// Serial in-memory case: rows are zero-copy subslices of the buffer.
	mem []byte
	pos int
	// Merge case (spilled runs or parallel-sorted chunks).
	srcs   []mergeSource
	lt     *LoserTree[[]byte]
	rowBuf []byte
}

// Next returns the next row, or nil at the end of the sequence.
func (it *Iterator) Next() ([]byte, error) {
	if it.lt == nil {
		if it.pos+it.width <= len(it.mem) {
			row := it.mem[it.pos : it.pos+it.width]
			it.pos += it.width
			return row, nil
		}
		return nil, nil
	}
	w, row, ok := it.lt.Winner()
	if !ok {
		return nil, nil
	}
	it.rowBuf = append(it.rowBuf[:0], row...)
	src := it.srcs[w]
	if err := src.next(); err != nil {
		return nil, err
	}
	row = src.cur()
	it.lt.Advance(row, row != nil)
	return it.rowBuf, nil
}

// Close releases any temp files still open.
func (it *Iterator) Close() {
	for _, src := range it.srcs {
		if rr, ok := src.(*runReader); ok {
			rr.closeFile()
		}
	}
	it.srcs, it.lt = nil, nil
	it.mem = nil
}

// runReader streams one spilled run as a mergeSource, closing its file as
// soon as the run is exhausted.
type runReader struct {
	r   *bufio.Reader
	f   *os.File
	row []byte
	eof bool
}

func (rr *runReader) cur() []byte {
	if rr.eof {
		return nil
	}
	return rr.row
}

func (rr *runReader) next() error {
	if rr.eof {
		return nil
	}
	_, err := io.ReadFull(rr.r, rr.row)
	// errors.Is, not ==: the run reader sits behind the fault injector's
	// wrapping, so sentinel EOFs may arrive wrapped.
	if errors.Is(err, io.EOF) {
		rr.eof = true
		rr.closeFile()
		return nil
	}
	if errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("extsort: truncated run file")
	}
	return err
}

func (rr *runReader) closeFile() {
	if rr.f != nil {
		rr.f.Close()
		rr.f = nil
	}
}

// sortRows sorts the rows of buf (fixed width) in place by raw byte order,
// the in-memory sort of every run and every unspilled sort. It is an MSD
// radix sort that permutes in place (American flag sort): one counting
// pass per byte position splits a range into 256 buckets, rows move to
// their buckets by swaps, and each bucket of more than one row recurses on
// the next byte. A range whose rows all share the current byte descends
// without moving anything (small big-endian IDs lead with zero bytes), and
// ranges of at most insertionRows rows finish by insertion sort. The order
// is the rows' full bytes, a total order, so the output is the one any
// correct sort gives. Scratch is one row plus two 256-entry tables per
// recursion level, none of it proportional to the row count.
func sortRows(buf []byte, width int) {
	if width <= 0 || len(buf) < 2*width {
		return
	}
	radixSort(buf, width, 0, make([]byte, width))
}

// insertionRows is the largest range sortRows finishes by insertion sort.
const insertionRows = 24

// radixSort sorts buf's rows, which agree on their first depth bytes.
func radixSort(buf []byte, w, depth int, tmp []byte) {
	n := len(buf) / w
	if n <= insertionRows {
		insertionSort(buf, w, depth, tmp)
		return
	}
	var next, end [256]int // row index of each bucket's next unplaced row, and its end
	for {
		for i := depth; i < len(buf); i += w {
			end[buf[i]]++
		}
		if end[buf[depth]] != n {
			break
		}
		// One bucket holds every row: nothing moves at this byte.
		end[buf[depth]] = 0
		if depth++; depth == w {
			return
		}
	}
	sum := 0
	for b, c := range end {
		next[b] = sum
		sum += c
		end[b] = sum
	}
	for b := range next {
		for next[b] < end[b] {
			i := next[b]
			d := buf[i*w+depth]
			if int(d) == b {
				next[b]++
				continue
			}
			swapRows(buf[i*w:(i+1)*w], buf[next[d]*w:(next[d]+1)*w])
			next[d]++
		}
	}
	if depth+1 == w {
		return
	}
	start := 0
	for _, stop := range end {
		if stop-start > 1 {
			radixSort(buf[start*w:stop*w], w, depth+1, tmp)
		}
		start = stop
	}
}

// swapRows exchanges two equal-width rows, eight bytes at a time.
func swapRows(a, b []byte) {
	b = b[:len(a)]
	k := 0
	for ; k+8 <= len(a); k += 8 {
		x := binary.LittleEndian.Uint64(a[k:])
		binary.LittleEndian.PutUint64(a[k:], binary.LittleEndian.Uint64(b[k:]))
		binary.LittleEndian.PutUint64(b[k:], x)
	}
	for ; k < len(a); k++ {
		a[k], b[k] = b[k], a[k]
	}
}

// insertionSort sorts buf's rows, which agree on their first depth bytes:
// each row goes to tmp, the larger rows before it shift up one row in a
// single copy, and the row lands in the gap.
func insertionSort(buf []byte, w, depth int, tmp []byte) {
	for i := w; i < len(buf); i += w {
		j := i
		for j > 0 && bytes.Compare(buf[j-w+depth:j], buf[i+depth:i+w]) > 0 {
			j -= w
		}
		if j == i {
			continue
		}
		copy(tmp, buf[i:i+w])
		copy(buf[j+w:i+w], buf[j:i])
		copy(buf[j:j+w], tmp)
	}
}
