package wal

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

func TestFrameEncodeDecodeRoundTrip(t *testing.T) {
	var buf []byte
	want := []Record{
		{Type: 1, Seq: 1, Payload: []byte("hello")},
		{Type: 9, Seq: 2, Payload: nil},
		{Type: 3, Seq: 3, Payload: bytes.Repeat([]byte{0xAB}, 1000)},
	}
	for _, rec := range want {
		buf = EncodeFrame(buf, rec)
	}
	for i, w := range want {
		rec, n, err := DecodeFrame(buf)
		if err != nil {
			t.Fatalf("DecodeFrame #%d: %v", i, err)
		}
		if rec.Type != w.Type || rec.Seq != w.Seq || !bytes.Equal(rec.Payload, w.Payload) {
			t.Fatalf("frame %d = %+v, want %+v", i, rec, w)
		}
		buf = buf[n:]
	}
	if len(buf) != 0 {
		t.Fatalf("%d trailing bytes after decoding all frames", len(buf))
	}
}

func TestDecodeFrameShort(t *testing.T) {
	full := EncodeFrame(nil, Record{Type: 1, Seq: 42, Payload: []byte("payload")})
	// Every proper prefix is a short frame, not a corruption error.
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := DecodeFrame(full[:cut]); !errors.Is(err, ErrShortFrame) {
			t.Fatalf("DecodeFrame(prefix %d/%d) = %v, want ErrShortFrame", cut, len(full), err)
		}
	}
}

func TestDecodeFrameCorrupt(t *testing.T) {
	full := EncodeFrame(nil, Record{Type: 1, Seq: 42, Payload: []byte("payload")})

	// A flipped payload byte must fail the CRC, not decode silently.
	crcBad := append([]byte(nil), full...)
	crcBad[len(crcBad)-1] ^= 0x01
	if _, _, err := DecodeFrame(crcBad); err == nil || errors.Is(err, ErrShortFrame) {
		t.Fatalf("DecodeFrame(corrupt payload) = %v, want CRC error", err)
	}

	// An absurd declared length is rejected before any read past the header.
	lenBad := append([]byte(nil), full...)
	lenBad[0], lenBad[1], lenBad[2], lenBad[3] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, _, err := DecodeFrame(lenBad); err == nil || errors.Is(err, ErrShortFrame) {
		t.Fatalf("DecodeFrame(bad length) = %v, want invalid-length error", err)
	}
}

func decodeAll(t *testing.T, frames []byte) []Record {
	t.Helper()
	var out []Record
	for len(frames) > 0 {
		rec, n, err := DecodeFrame(frames)
		if err != nil {
			t.Fatalf("DecodeFrame: %v (after %d records)", err, len(out))
		}
		out = append(out, Record{Type: rec.Type, Seq: rec.Seq, Payload: append([]byte(nil), rec.Payload...)})
		frames = frames[n:]
	}
	return out
}

func TestCollectFramesRange(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{SegmentSize: 128, Sync: SyncAlways})
	defer l.Close()
	for i := 0; i < 20; i++ {
		if _, err := l.Append(Record{Type: 2, Payload: []byte(fmt.Sprintf("rec-%02d", i))}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}

	frames, first, last, err := l.CollectFrames(5, 12, 1<<20)
	if err != nil {
		t.Fatalf("CollectFrames: %v", err)
	}
	if first != 5 || last != 12 {
		t.Fatalf("CollectFrames range = [%d,%d], want [5,12]", first, last)
	}
	recs := decodeAll(t, frames)
	if len(recs) != 8 {
		t.Fatalf("collected %d records, want 8", len(recs))
	}
	for i, rec := range recs {
		wantSeq := uint64(5 + i)
		if rec.Seq != wantSeq || string(rec.Payload) != fmt.Sprintf("rec-%02d", wantSeq-1) {
			t.Fatalf("record %d = %+v, want seq %d", i, rec, wantSeq)
		}
	}

	// from past the tail: empty result, no error (the long-poll idle case).
	if frames, first, last, err = l.CollectFrames(21, 100, 1<<20); err != nil || frames != nil || first != 0 || last != 0 {
		t.Fatalf("CollectFrames(past tail) = %d bytes [%d,%d], %v; want empty", len(frames), first, last, err)
	}
	// from > upTo: empty result too.
	if frames, _, _, err = l.CollectFrames(10, 5, 1<<20); err != nil || frames != nil {
		t.Fatalf("CollectFrames(from>upTo) = %d bytes, %v; want empty", len(frames), err)
	}
}

func TestCollectFramesMaxBytes(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{Sync: SyncAlways})
	defer l.Close()
	payload := bytes.Repeat([]byte("x"), 100)
	for i := 0; i < 10; i++ {
		if _, err := l.Append(Record{Type: 1, Payload: payload}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}

	// A cap smaller than one frame still yields exactly one record —
	// otherwise a follower with a small batch size could never progress.
	frames, first, last, err := l.CollectFrames(1, 10, 1)
	if err != nil {
		t.Fatalf("CollectFrames: %v", err)
	}
	if first != 1 || last != 1 {
		t.Fatalf("CollectFrames(maxBytes=1) range = [%d,%d], want [1,1]", first, last)
	}
	if got := decodeAll(t, frames); len(got) != 1 {
		t.Fatalf("collected %d records, want 1", len(got))
	}

	// A cap fitting ~3 frames stops early; the result is a dense prefix.
	frameSize := frameHeaderSize + frameBodyOverhead + len(payload)
	frames, first, last, err = l.CollectFrames(1, 10, 3*frameSize)
	if err != nil {
		t.Fatalf("CollectFrames: %v", err)
	}
	recs := decodeAll(t, frames)
	if first != 1 || int(last) != len(recs) || len(recs) >= 10 || len(recs) < 3 {
		t.Fatalf("CollectFrames(3 frames) = %d records [%d,%d]", len(recs), first, last)
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d seq = %d, want dense from 1", i, rec.Seq)
		}
	}
}

// maxBytes is a cap: every collect of more than one record fits in it, and
// stops only where the next record would not fit (or the range ends). Only
// a lone first record may exceed it. The records vary in size and span
// several segments, and the caps fall on, just below and just above frame
// boundaries.
func TestCollectFramesFitMaxBytes(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{SegmentSize: 700, Sync: SyncNever})
	defer l.Close()
	const n = 40
	frameSize := make([]int, n+1) // by sequence number
	for i := 1; i <= n; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, (i*37)%200)
		if _, err := l.Append(Record{Type: 2, Payload: payload}); err != nil {
			t.Fatal(err)
		}
		frameSize[i] = frameHeaderSize + frameBodyOverhead + len(payload)
	}
	check := func(from uint64, maxBytes int) {
		t.Helper()
		frames, first, last, err := l.CollectFrames(from, n, maxBytes)
		if err != nil {
			t.Fatalf("CollectFrames(%d, max %d): %v", from, maxBytes, err)
		}
		recs := decodeAll(t, frames)
		if first != from || int(last-first)+1 != len(recs) {
			t.Fatalf("CollectFrames(%d, max %d) = %d records [%d,%d]", from, maxBytes, len(recs), first, last)
		}
		if len(recs) > 1 && len(frames) > maxBytes {
			t.Fatalf("CollectFrames(%d, max %d) = %d records in %d bytes, past the cap", from, maxBytes, len(recs), len(frames))
		}
		if last < n && len(frames)+frameSize[last+1] <= maxBytes {
			t.Fatalf("CollectFrames(%d, max %d) stopped at %d with %d bytes, but record %d (%d bytes) fits", from, maxBytes, last, len(frames), last+1, frameSize[last+1])
		}
	}
	for from := uint64(1); from <= n; from += 3 {
		check(from, 1)
		total := 0
		for seq := from; seq <= n && total < 2000; seq++ {
			total += frameSize[seq]
			check(from, total-1)
			check(from, total)
			check(from, total+1)
		}
	}
}

func TestCollectFramesCompacted(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{SegmentSize: 64, Sync: SyncAlways})
	defer l.Close()
	payload := bytes.Repeat([]byte("y"), 40)
	for i := 0; i < 12; i++ {
		if _, err := l.Append(Record{Type: 1, Payload: payload}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if removed, err := l.Compact(8); err != nil || removed == 0 {
		t.Fatalf("Compact = %d, %v; want segments removed", removed, err)
	}
	retained := l.FirstSeq()
	if retained <= 1 {
		t.Fatalf("FirstSeq after compaction = %d, want > 1", retained)
	}

	// A reader behind the compaction floor gets ErrCompacted, never a
	// silent gap.
	if _, _, _, err := l.CollectFrames(1, 12, 1<<20); !errors.Is(err, ErrCompacted) {
		t.Fatalf("CollectFrames(compacted prefix) = %v, want ErrCompacted", err)
	}
	// A reader at the retained boundary still succeeds.
	frames, first, last, err := l.CollectFrames(retained, 12, 1<<20)
	if err != nil {
		t.Fatalf("CollectFrames(retained): %v", err)
	}
	if first != retained || last != 12 {
		t.Fatalf("CollectFrames(retained) range = [%d,%d], want [%d,12]", first, last, retained)
	}
	if got := decodeAll(t, frames); uint64(len(got)) != 12-retained+1 {
		t.Fatalf("collected %d records, want %d", len(got), 12-retained+1)
	}
}

func TestInitialSeq(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{Sync: SyncAlways, InitialSeq: 101})
	if seq, err := l.Append(Record{Type: 1, Payload: []byte("first")}); err != nil || seq != 101 {
		t.Fatalf("Append with InitialSeq = %d, %v; want 101", seq, err)
	}
	if seq, err := l.Append(Record{Type: 1, Payload: []byte("second")}); err != nil || seq != 102 {
		t.Fatalf("second Append = %d, %v; want 102", seq, err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen without InitialSeq: the on-disk run wins.
	l = openT(t, dir, Options{Sync: SyncAlways})
	defer l.Close()
	if l.LastSeq() != 102 || l.FirstSeq() != 101 {
		t.Fatalf("reopened run = [%d,%d], want [101,102]", l.FirstSeq(), l.LastSeq())
	}
	if seq, err := l.Append(Record{Type: 1, Payload: []byte("third")}); err != nil || seq != 103 {
		t.Fatalf("Append after reopen = %d, %v; want 103", seq, err)
	}
	recs := collect(t, l, 101)
	if len(recs) != 3 || recs[0].Seq != 101 {
		t.Fatalf("Replay(101) = %+v", recs)
	}
}
