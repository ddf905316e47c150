// Package wal implements the append-only, CRC32C-framed, segment-rotated
// write-ahead log behind quicksel's durability story. The quickseld serving
// registry logs every acknowledged observation (plus estimator creates
// and drops) through one Log; the public quicksel API offers the same
// machinery to library embedders via WithWAL.
//
// # Format
//
// A log is a directory of segment files named wal-<first-seq, 16 hex
// digits>.seg. Segments hold a dense run of frames:
//
//	offset 0  uint32 LE  n: length of the body
//	offset 4  uint32 LE  CRC32C (Castagnoli) of the body
//	offset 8  byte       record type (opaque to this package)
//	offset 9  uint64 LE  sequence number
//	offset 17 [n-9]byte  payload (opaque to this package)
//
// Sequence numbers start at 1 and increase by exactly one across the whole
// log, never resetting across restarts or rotations: the active segment's
// file name pins the tail position even when every record has been
// compacted away. A frame that fails its CRC, runs past the file, or breaks
// the sequence run marks the end of usable data: in the newest segment that
// is the torn tail of a crashed append and is truncated away on Open; in an
// older (immutable, rotation-closed) segment it is real corruption and Open
// refuses the log rather than silently dropping the records behind it.
//
// # Group commit
//
// Append coalesces concurrent callers: records are framed into a shared
// in-memory batch under the log lock, and the first waiter through the
// flush lock becomes the leader, writing the whole staged batch — its own
// records and every concurrent appender's — with one write (and, for
// SyncAlways, one fsync). N concurrent observe calls cost one syscall, not
// N, and no cross-goroutine wakeup sits on the append path. Append returns
// once the batch reaches the log's durability point: the fsync for
// SyncAlways, the OS page cache (surviving a killed process, not a killed
// machine) for SyncInterval and SyncNever. SyncInterval additionally
// fsyncs in the background every SyncInterval, off the append path; a
// background goroutine also drains records appended without waiting.
//
// # Compaction
//
// Compact(upTo) deletes whole segments whose records all have seq <= upTo —
// records made redundant by a snapshot that already covers them. The active
// segment is never deleted. Replay streams the retained records back in
// sequence order.
//
// A Log is safe for concurrent Append/Stats/Compact. Replay must not run
// concurrently with Append; callers replay before serving traffic.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"quicksel/internal/obs"
)

// Policy names the fsync discipline of a Log.
type Policy string

const (
	// SyncAlways fsyncs every group-commit batch before acknowledging it:
	// an acked append survives machine power loss.
	SyncAlways Policy = "always"
	// SyncInterval acknowledges after write(2) and fsyncs in the background
	// every Options.SyncInterval: an acked append survives a killed process;
	// at most one interval of acked appends is exposed to machine loss. The
	// default.
	SyncInterval Policy = "interval"
	// SyncNever acknowledges after write(2) and never fsyncs; the OS flushes
	// on its own schedule.
	SyncNever Policy = "never"
)

// Policies returns the valid fsync policy names.
func Policies() []string {
	return []string{string(SyncAlways), string(SyncInterval), string(SyncNever)}
}

// ParsePolicy validates a policy name; "" selects SyncInterval.
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case "", SyncInterval:
		return SyncInterval, nil
	case SyncAlways:
		return SyncAlways, nil
	case SyncNever:
		return SyncNever, nil
	default:
		return "", fmt.Errorf("wal: unknown fsync policy %q (valid policies: %v)", s, Policies())
	}
}

// Defaults for Options fields left zero.
const (
	DefaultSegmentSize  = 64 << 20 // 64 MiB
	DefaultSyncInterval = 100 * time.Millisecond
)

// frameHeaderSize is the fixed prefix (length + CRC) of every frame;
// frameBodyOverhead is the type byte and sequence number inside the body.
const (
	frameHeaderSize   = 8
	frameBodyOverhead = 9
	// MaxPayload bounds one record's payload; larger appends are rejected
	// up front rather than producing a frame the scanner would refuse.
	MaxPayload = 16 << 20
)

// Options tunes a Log. The zero value of every field selects its default.
type Options struct {
	// SegmentSize is the rotation threshold in bytes (default 64 MiB). The
	// threshold is soft: rotation happens between group-commit batches, so a
	// segment may exceed it by at most one batch.
	SegmentSize int64
	// Sync is the fsync policy; "" means SyncInterval.
	Sync Policy
	// SyncInterval is the background fsync cadence under SyncInterval
	// (default 100ms).
	SyncInterval time.Duration

	// InitialSeq is the sequence number of the first record ever appended,
	// used only when the directory holds no segments (0 selects 1, the
	// default). A replication follower bootstrapping from a primary snapshot
	// that covers sequence C opens its local log with InitialSeq C+1, so the
	// records it fetches keep the primary's numbering; the same applies to a
	// primary whose log directory was lost but whose snapshot survived.
	InitialSeq uint64

	// AppendHist and FsyncHist, when non-nil, record the latency of
	// group-commit segment writes and of fsync(2) calls — the two syscalls
	// on the durability path. Nil skips recording (obs histograms are
	// nil-safe), so embedders pay nothing for telemetry they did not ask
	// for.
	AppendHist *obs.Histogram
	FsyncHist  *obs.Histogram
}

func (o Options) withDefaults() (Options, error) {
	if o.SegmentSize <= 0 {
		o.SegmentSize = DefaultSegmentSize
	}
	p, err := ParsePolicy(string(o.Sync))
	if err != nil {
		return o, err
	}
	o.Sync = p
	if o.SyncInterval <= 0 {
		o.SyncInterval = DefaultSyncInterval
	}
	return o, nil
}

// Record is one log entry. Type and Payload are opaque to this package; Seq
// is assigned by the Log on append and reported back on replay.
type Record struct {
	Type    byte
	Seq     uint64
	Payload []byte
}

// segment is the metadata of one on-disk segment file.
type segment struct {
	path    string
	base    uint64 // seq encoded in the file name (first seq it may hold)
	first   uint64 // seq of the first record (0 when empty)
	last    uint64 // seq of the last record (0 when empty)
	size    int64
	records int
}

// waiter is one Append blocked on the durability point.
type waiter struct {
	seq uint64
	ch  chan error
}

// Stats is a point-in-time snapshot of a Log's counters and watermarks.
type Stats struct {
	// Appended counts records accepted by Append/Enqueue.
	Appended uint64 `json:"appended"`
	// Flushes counts group-commit write batches; Appended/Flushes is the
	// realized group-commit fan-in.
	Flushes uint64 `json:"flushes"`
	// Fsyncs counts fsync(2) calls on segment files.
	Fsyncs uint64 `json:"fsyncs"`
	// Rotations counts segment rollovers.
	Rotations uint64 `json:"rotations"`
	// CompactedSegments counts segment files deleted by Compact.
	CompactedSegments uint64 `json:"compacted_segments"`
	// TruncatedBytes counts torn-tail bytes dropped at Open.
	TruncatedBytes uint64 `json:"truncated_bytes"`
	// Segments and SizeBytes describe the retained on-disk footprint.
	Segments  int   `json:"segments"`
	SizeBytes int64 `json:"size_bytes"`
	// FirstSeq is the oldest retained record (0 when none); LastSeq the
	// newest assigned; DurableSeq the acknowledgment watermark (synced for
	// SyncAlways, written otherwise); SyncedSeq the fsync watermark.
	FirstSeq   uint64 `json:"first_seq"`
	LastSeq    uint64 `json:"last_seq"`
	DurableSeq uint64 `json:"durable_seq"`
	SyncedSeq  uint64 `json:"synced_seq"`
}

// Log is an open write-ahead log. Create one with Open and stop it with
// Close, which flushes every acknowledged batch.
type Log struct {
	dir  string
	opts Options

	// flushMu serializes flushes: exactly one goroutine — a waiting
	// appender driving its own batch (the leader of the group commit) or
	// the background goroutine — performs file I/O at a time. Held across
	// write, rotate, and fsync; never while holding mu.
	flushMu sync.Mutex

	mu       sync.Mutex
	segs     []segment // rotated (immutable) segments, oldest first
	active   segment   // the segment being appended to
	f        *os.File  // active segment file (guarded by flushMu)
	buf      []byte    // framed records awaiting the writer
	spare    []byte    // recycled staging storage (double buffering)
	bufFirst uint64
	bufLast  uint64
	nextSeq  uint64
	written  uint64 // highest seq handed to write(2)
	synced   uint64 // highest seq covered by an fsync
	werr     error  // sticky writer error; fails all future appends
	closed   bool
	waiters  []waiter

	appended, flushes, fsyncs, rotations, compacted, truncated uint64

	done  chan struct{}
	wg    sync.WaitGroup
	stopO sync.Once
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func segPath(dir string, base uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016x.seg", base))
}

// Open creates or reopens the log in dir. Reopening scans every retained
// segment, verifies CRCs and sequence continuity, truncates a torn tail
// left by a crash, and resumes appending after the last valid record.
func Open(dir string, opts Options) (*Log, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{
		dir:  dir,
		opts: opts,
		done: make(chan struct{}),
	}
	if err := l.scanDir(); err != nil {
		return nil, err
	}
	l.f, err = os.OpenFile(l.active.path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if _, err := l.f.Seek(l.active.size, io.SeekStart); err != nil {
		l.f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	l.wg.Add(1)
	go l.run()
	return l, nil
}

// scanDir loads segment metadata, validates the record run, and truncates a
// torn tail in the newest segment.
func (l *Log) scanDir() error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
			continue
		}
		var base uint64
		if _, err := fmt.Sscanf(name, "wal-%016x.seg", &base); err != nil || base == 0 {
			return fmt.Errorf("wal: unrecognized segment file name %q", name)
		}
		segs = append(segs, segment{path: filepath.Join(l.dir, name), base: base})
	}
	if len(segs) == 0 {
		l.nextSeq = 1
		if l.opts.InitialSeq > 1 {
			l.nextSeq = l.opts.InitialSeq
		}
		l.active = segment{path: segPath(l.dir, l.nextSeq), base: l.nextSeq}
		return nil
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].base < segs[j].base })

	expect := segs[0].base
	for i := range segs {
		s := &segs[i]
		if s.base != expect {
			return fmt.Errorf("wal: segment %s starts at seq %d, want %d (gap or duplicate)", s.path, s.base, expect)
		}
		res, err := scanSegment(s.path, 0, nil)
		if err != nil {
			return err
		}
		if res.torn {
			if i != len(segs)-1 {
				// Rotated segments are immutable: a bad frame here is not a
				// crashed append but corruption, and the records behind it
				// would be silently lost if we truncated.
				return fmt.Errorf("wal: segment %s is corrupt at offset %d (not the newest segment; refusing to drop %d trailing bytes)",
					s.path, res.good, res.size-res.good)
			}
			if err := os.Truncate(s.path, res.good); err != nil {
				return fmt.Errorf("wal: truncate torn tail of %s: %w", s.path, err)
			}
			l.truncated += uint64(res.size - res.good)
			res.size = res.good
		}
		if res.records > 0 && res.first != s.base {
			return fmt.Errorf("wal: segment %s first record has seq %d, want %d", s.path, res.first, s.base)
		}
		s.first, s.last, s.size, s.records = res.first, res.last, res.size, res.records
		if s.records > 0 {
			expect = s.last + 1
		}
	}
	l.segs = segs[:len(segs)-1]
	l.active = segs[len(segs)-1]
	l.nextSeq = expect
	return nil
}

// scanResult reports one sequential pass over a segment file.
type scanResult struct {
	records     int
	first, last uint64
	good        int64 // offset just past the last valid frame
	size        int64 // file size
	torn        bool  // a bad frame stopped the scan before EOF
}

// scanSegment walks a segment's frames, verifying length, CRC, and the
// dense sequence run. When fn is non-nil it is invoked for every record with
// seq >= from; fn errors abort the scan. The payload passed to fn is only
// valid during the call.
func scanSegment(path string, from uint64, fn func(Record) error) (scanResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return scanResult{}, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return scanResult{}, fmt.Errorf("wal: %w", err)
	}
	res := scanResult{size: info.Size()}
	r := bufio.NewReaderSize(f, 1<<20)
	var hdr [frameHeaderSize]byte
	var body []byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err != io.EOF {
				res.torn = true
			}
			return res, nil
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		if n < frameBodyOverhead || n > frameBodyOverhead+MaxPayload {
			res.torn = true
			return res, nil
		}
		if cap(body) < int(n) {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(r, body); err != nil {
			res.torn = true
			return res, nil
		}
		if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(hdr[4:8]) {
			res.torn = true
			return res, nil
		}
		seq := binary.LittleEndian.Uint64(body[1:9])
		if res.records > 0 && seq != res.last+1 {
			res.torn = true
			return res, nil
		}
		if res.records == 0 {
			res.first = seq
		}
		res.last = seq
		res.records++
		res.good += int64(frameHeaderSize + n)
		if fn != nil && seq >= from {
			if err := fn(Record{Type: body[0], Seq: seq, Payload: body[frameBodyOverhead:]}); err != nil {
				return res, err
			}
		}
	}
}

// ErrShortFrame reports a frame cut off before its declared length — the
// tail of a partial read or a torn replication response. The bytes before
// it are intact; the caller resumes from the record after the last complete
// frame.
var ErrShortFrame = errors.New("wal: short frame")

// ErrCompacted reports a read of records that compaction has already
// deleted. A replication follower receiving it is behind the primary's
// compaction floor and must re-bootstrap from a snapshot instead of
// tailing the log.
var ErrCompacted = errors.New("wal: records compacted away")

// EncodeFrame appends rec in the on-disk frame format (length, CRC32C,
// type, seq, payload) to dst. It is the wire format of WAL shipping: a
// replication response is a dense run of these frames.
func EncodeFrame(dst []byte, rec Record) []byte {
	return appendFrame(dst, rec.Type, rec.Seq, rec.Payload)
}

// DecodeFrame parses the first frame in data, returning the record and the
// number of bytes consumed. ErrShortFrame means data ends before the frame
// does (read more and retry); any other error means the bytes are not a
// valid frame (CRC mismatch, absurd length). The record's payload aliases
// data and is only valid while data is.
func DecodeFrame(data []byte) (Record, int, error) {
	if len(data) < frameHeaderSize {
		return Record{}, 0, ErrShortFrame
	}
	n := binary.LittleEndian.Uint32(data[0:4])
	if n < frameBodyOverhead || n > frameBodyOverhead+MaxPayload {
		return Record{}, 0, fmt.Errorf("wal: invalid frame length %d", n)
	}
	if len(data) < frameHeaderSize+int(n) {
		return Record{}, 0, ErrShortFrame
	}
	body := data[frameHeaderSize : frameHeaderSize+int(n)]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[4:8]) {
		return Record{}, 0, fmt.Errorf("wal: frame CRC mismatch")
	}
	return Record{
		Type:    body[0],
		Seq:     binary.LittleEndian.Uint64(body[1:9]),
		Payload: body[frameBodyOverhead:],
	}, frameHeaderSize + int(n), nil
}

// appendFrame encodes one record into dst.
func appendFrame(dst []byte, typ byte, seq uint64, payload []byte) []byte {
	off := len(dst)
	n := frameBodyOverhead + len(payload)
	dst = append(dst, make([]byte, frameHeaderSize)...)
	dst = append(dst, typ)
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = append(dst, payload...)
	binary.LittleEndian.PutUint32(dst[off:], uint32(n))
	binary.LittleEndian.PutUint32(dst[off+4:], crc32.Checksum(dst[off+frameHeaderSize:], castagnoli))
	return dst
}

// Enqueue assigns sequence numbers to the records, stages their frames for
// the group-commit writer, and returns immediately. The returned wait
// function blocks until the whole batch has reached the log's durability
// point (or the writer failed) and must be called without holding locks the
// writer could need. Enqueue itself is cheap enough to call under a caller
// lock, which is how the serving registry keeps its buffer order identical
// to the log order.
func (l *Log) Enqueue(recs []Record) (first, last uint64, wait func() error) {
	fail := func(err error) (uint64, uint64, func() error) {
		return 0, 0, func() error { return err }
	}
	if len(recs) == 0 {
		return 0, 0, func() error { return nil }
	}
	for _, rec := range recs {
		if len(rec.Payload) > MaxPayload {
			return fail(fmt.Errorf("wal: record payload of %d bytes exceeds the %d-byte bound", len(rec.Payload), MaxPayload))
		}
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return fail(fmt.Errorf("wal: log is closed"))
	}
	if l.werr != nil {
		err := l.werr
		l.mu.Unlock()
		return fail(err)
	}
	first = l.nextSeq
	if len(l.buf) == 0 {
		l.bufFirst = first
	}
	for _, rec := range recs {
		l.buf = appendFrame(l.buf, rec.Type, l.nextSeq, rec.Payload)
		l.nextSeq++
	}
	last = l.nextSeq - 1
	l.bufLast = last
	l.appended += uint64(len(recs))
	ch := make(chan error, 1)
	l.waiters = append(l.waiters, waiter{seq: last, ch: ch})
	l.mu.Unlock()
	// The wait function drives the flush itself instead of sleeping on the
	// background goroutine (leader-based group commit): the first waiter
	// through flushMu writes the whole staged batch — its own records and
	// every concurrent appender's — with one write, and the others find
	// their acknowledgment already delivered. No cross-goroutine wakeup sits
	// on the hot path; the background goroutine only matters for periodic
	// fsyncs and for records appended without waiting.
	wait = func() error {
		select {
		case err := <-ch:
			return err
		default:
		}
		l.flush(false)
		select {
		case err := <-ch:
			return err
		default:
			// A concurrent leader took the batch containing our records
			// before our flush ran; it acknowledges us when it finishes.
			return <-ch
		}
	}
	return first, last, wait
}

// Append is Enqueue followed by the durability wait: it returns the batch's
// last sequence number once every record is durable under the log's policy.
func (l *Log) Append(recs ...Record) (uint64, error) {
	_, last, wait := l.Enqueue(recs)
	return last, wait()
}

// run is the background side of the group commit: on a fixed cadence it
// drains batches whose appenders did not wait and — under
// SyncInterval — fires the periodic fsync; on shutdown it performs the
// final flush. Waiting appenders never depend on it: they drive their own
// flush, so no signal (and no cross-goroutine wakeup) sits on the append
// hot path.
func (l *Log) run() {
	defer l.wg.Done()
	interval := l.opts.SyncInterval
	if l.opts.Sync != SyncInterval {
		interval = DefaultSyncInterval // drain-only cadence; flush decides about fsync
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-l.done:
			l.flush(true)
			return
		case <-t.C:
			l.flush(false)
			if l.opts.Sync == SyncInterval {
				// The periodic fsync runs outside flushMu: an fsync can cost
				// tens of milliseconds, and holding the flush lock across it
				// would stall every concurrent append behind the ticker.
				l.periodicSync()
			}
		}
	}
}

// periodicSync fsyncs the active segment up to the current written
// watermark without blocking appenders. Concurrent Sync and Close on an
// os.File are safe (the fd is reference-counted); if a rotation swaps the
// file mid-sync, the rotation itself fsynced the outgoing segment, so a
// failed sync here is not a durability hole — genuine IO errors resurface
// on the write path.
func (l *Log) periodicSync() {
	l.mu.Lock()
	f, target := l.f, l.written
	needed := !l.closed && l.synced < target
	l.mu.Unlock()
	if !needed {
		return
	}
	start := time.Now()
	err := f.Sync()
	l.opts.FsyncHist.Observe(time.Since(start))
	if err != nil {
		return
	}
	l.mu.Lock()
	if l.synced < target {
		l.synced = target
	}
	l.fsyncs++
	l.mu.Unlock()
}

// flush writes the staged batch (if any), fsyncs per policy (syncDue forces
// the periodic fsync of SyncInterval), and releases the waiters that
// reached the durability point. Any goroutine may call it; flushMu makes
// one of them the leader and the file operations single-threaded.
func (l *Log) flush(syncDue bool) {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()

	l.mu.Lock()
	buf, first, last := l.buf, l.bufFirst, l.bufLast
	// Swap in the spare staging buffer (double buffering): concurrent
	// Enqueues keep staging while this batch is on its way to the disk, and
	// neither side pays an allocation per flush.
	if l.spare != nil {
		l.buf = l.spare[:0]
		l.spare = nil
	} else {
		l.buf = nil
	}
	werr := l.werr
	// After Close has drained and synced, there is nothing left to do and
	// touching l.f would race the file close.
	closedIdle := l.closed && len(buf) == 0 &&
		(l.opts.Sync == SyncNever || l.synced >= l.written)
	l.mu.Unlock()

	if werr != nil {
		l.failWaiters(werr)
		return
	}
	if closedIdle {
		return
	}
	wrote := false
	var err error
	if len(buf) > 0 {
		err = l.maybeRotate(first)
		if err == nil {
			start := time.Now()
			_, err = l.f.Write(buf)
			l.opts.AppendHist.Observe(time.Since(start))
		}
		if err == nil {
			wrote = true
			l.mu.Lock()
			l.flushes++
			l.written = last
			l.active.size += int64(len(buf))
			if l.active.records == 0 {
				l.active.first = first
			}
			l.active.last = last
			l.active.records += int(last - first + 1)
			if l.spare == nil || cap(buf) > cap(l.spare) {
				l.spare = buf[:0] // recycle the written batch's storage
			}
			l.mu.Unlock()
		}
	}
	synced := false
	if err == nil {
		switch {
		case l.opts.Sync == SyncAlways && wrote,
			l.opts.Sync == SyncInterval && syncDue && l.unsynced():
			start := time.Now()
			err = l.f.Sync()
			l.opts.FsyncHist.Observe(time.Since(start))
			synced = err == nil
		}
	}

	l.mu.Lock()
	if err != nil {
		l.werr = fmt.Errorf("wal: write: %w", err)
	}
	if synced {
		l.fsyncs++
		l.synced = l.written
	}
	ack := l.written
	if l.opts.Sync == SyncAlways {
		ack = l.synced
	}
	var release []waiter
	if l.werr != nil {
		release, l.waiters = l.waiters, nil
		err = l.werr
	} else {
		n := 0
		for _, w := range l.waiters {
			if w.seq <= ack {
				release = append(release, w)
			} else {
				l.waiters[n] = w
				n++
			}
		}
		l.waiters = l.waiters[:n]
	}
	l.mu.Unlock()
	for _, w := range release {
		w.ch <- err
	}
}

func (l *Log) unsynced() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.synced < l.written
}

func (l *Log) failWaiters(err error) {
	l.mu.Lock()
	release := l.waiters
	l.waiters = nil
	l.mu.Unlock()
	for _, w := range release {
		w.ch <- err
	}
}

// maybeRotate finalizes the active segment once it crosses the size
// threshold and starts a new one named after the first sequence number of
// the batch about to be written. Called only under flushMu.
func (l *Log) maybeRotate(base uint64) error {
	l.mu.Lock()
	needed := l.active.size >= l.opts.SegmentSize && l.active.records > 0
	l.mu.Unlock()
	if !needed {
		return nil
	}
	if l.opts.Sync != SyncNever {
		start := time.Now()
		err := l.f.Sync()
		l.opts.FsyncHist.Observe(time.Since(start))
		if err != nil {
			return err
		}
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	f, err := os.OpenFile(segPath(l.dir, base), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	syncDir(l.dir)
	l.mu.Lock()
	l.segs = append(l.segs, l.active)
	l.active = segment{path: f.Name(), base: base}
	l.f = f
	l.rotations++
	l.mu.Unlock()
	return nil
}

// syncDir best-effort fsyncs a directory so segment creations and removals
// survive power loss; not all platforms support it.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}

// Replay streams every retained record with seq >= from, in sequence order.
// It must not run concurrently with Append; callers replay on startup
// before serving traffic. fn's Record payload is only valid during the
// call.
func (l *Log) Replay(from uint64, fn func(Record) error) error {
	l.mu.Lock()
	segs := append(append([]segment(nil), l.segs...), l.active)
	l.mu.Unlock()
	for _, s := range segs {
		if s.records == 0 || s.last < from {
			continue
		}
		if _, err := scanSegment(s.path, from, fn); err != nil {
			return err
		}
	}
	return nil
}

// errCollectDone stops a CollectFrames segment scan once the byte budget is
// spent; it never escapes the method.
var errCollectDone = errors.New("wal: collect done")

// CollectFrames re-frames retained records with from <= seq <= upTo into a
// byte slice in the on-disk wire format, stopping before the frame that
// would take it past maxBytes. The first record is always included, so
// progress is guaranteed even when one record outsizes the budget; past it,
// the result never exceeds maxBytes. It returns the framed bytes and the
// first and last sequence numbers included (0, 0 when none).
//
// It returns ErrCompacted when records at from have already been deleted by
// Compact — the caller is behind the compaction floor and must bootstrap
// from a snapshot. Callers cap upTo at DurableSeq so unacknowledged records
// never ship.
//
// Unlike Replay, CollectFrames is safe concurrently with Append: it reads
// the segment files through its own descriptors and simply stops at the
// first incomplete frame (an append racing the read), returning the intact
// prefix. Each call rescans its starting segment from the beginning, so the
// cost of a tailing reader is one sequential read of the active segment per
// call.
func (l *Log) CollectFrames(from, upTo uint64, maxBytes int) (frames []byte, first, last uint64, err error) {
	if from == 0 {
		from = 1
	}
	l.mu.Lock()
	segs := append(append([]segment(nil), l.segs...), l.active)
	tail := l.nextSeq - 1
	l.mu.Unlock()
	if from > upTo || from > tail {
		return nil, 0, 0, nil
	}
	retained := uint64(0)
	for _, s := range segs {
		if s.records > 0 {
			retained = s.first
			break
		}
	}
	if retained == 0 || from < retained {
		// Records at from were assigned (from <= tail) but are no longer on
		// disk: compaction outran this reader.
		return nil, 0, 0, ErrCompacted
	}
	expect := from
	for _, s := range segs {
		if s.records == 0 || s.last < from {
			continue
		}
		_, serr := scanSegment(s.path, from, func(rec Record) error {
			if rec.Seq != expect || rec.Seq > upTo {
				return errCollectDone
			}
			if first != 0 && len(frames)+frameHeaderSize+frameBodyOverhead+len(rec.Payload) > maxBytes {
				return errCollectDone
			}
			frames = EncodeFrame(frames, rec)
			if first == 0 {
				first = rec.Seq
			}
			last = rec.Seq
			expect++
			return nil
		})
		if serr != nil {
			if errors.Is(serr, errCollectDone) {
				break
			}
			if errors.Is(serr, os.ErrNotExist) {
				// The segment vanished mid-collect: a concurrent Compact won
				// the race. Anything gathered so far is a valid prefix.
				if first != 0 {
					return frames, first, last, nil
				}
				return nil, 0, 0, ErrCompacted
			}
			return nil, 0, 0, serr
		}
		if last != 0 && (last >= upTo || len(frames) >= maxBytes) {
			break
		}
	}
	return frames, first, last, nil
}

// Compact deletes rotated segments whose records all have seq <= upTo. The
// active segment is never deleted, so the tail position survives even a
// full compaction. It returns the number of segments removed.
func (l *Log) Compact(upTo uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	removed := 0
	for len(l.segs) > 0 && l.segs[0].records > 0 && l.segs[0].last <= upTo {
		if err := os.Remove(l.segs[0].path); err != nil {
			syncDir(l.dir)
			return removed, fmt.Errorf("wal: compact: %w", err)
		}
		l.segs = l.segs[1:]
		removed++
		l.compacted++
	}
	if removed > 0 {
		syncDir(l.dir)
	}
	return removed, nil
}

// LastSeq returns the highest assigned sequence number (0 before the first
// append).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq - 1
}

// DurableSeq returns the acknowledgment watermark: the highest sequence
// number whose Append wait has (or would have) returned.
func (l *Log) DurableSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.opts.Sync == SyncAlways {
		return l.synced
	}
	return l.written
}

// FirstSeq returns the oldest retained record's sequence number, or 0 when
// the log holds no records.
func (l *Log) FirstSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.segs {
		if s.records > 0 {
			return s.first
		}
	}
	if l.active.records > 0 {
		return l.active.first
	}
	return 0
}

// Stats snapshots the log's counters and watermarks.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{
		Appended:          l.appended,
		Flushes:           l.flushes,
		Fsyncs:            l.fsyncs,
		Rotations:         l.rotations,
		CompactedSegments: l.compacted,
		TruncatedBytes:    l.truncated,
		Segments:          len(l.segs) + 1,
		SizeBytes:         l.active.size + int64(len(l.buf)),
		LastSeq:           l.nextSeq - 1,
		SyncedSeq:         l.synced,
	}
	if l.opts.Sync == SyncAlways {
		st.DurableSeq = l.synced
	} else {
		st.DurableSeq = l.written
	}
	for _, s := range l.segs {
		st.SizeBytes += s.size
		if st.FirstSeq == 0 && s.records > 0 {
			st.FirstSeq = s.first
		}
	}
	if st.FirstSeq == 0 && l.active.records > 0 {
		st.FirstSeq = l.active.first
	}
	return st
}

// Close flushes the staged batch, fsyncs (unless SyncNever), stops the
// writer, and closes the active segment. Appends after Close fail.
func (l *Log) Close() error {
	l.stopO.Do(func() { close(l.done) })
	l.wg.Wait()
	l.mu.Lock()
	already := l.closed
	l.closed = true
	l.mu.Unlock()
	if already {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.werr
	}
	// An Enqueue that raced the writer's shutdown flush may have staged
	// records the writer never saw; closed is set, so one more flush drains
	// everything and releases every waiter.
	l.flush(true)
	l.mu.Lock()
	err := l.werr
	l.mu.Unlock()
	if cerr := l.f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}
