package wal

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"slices"
	"testing"
)

// framed decodes the records framed at the start of b by the documented
// layout, [uint32 LE length][uint32 LE CRC32][1-byte op length][op][data],
// stopping at the first frame that is torn, oversize or fails its
// checksum. clean reports whether the frames cover b exactly.
func framed(b []byte) (recs []rec, clean bool) {
	for len(b) >= frameHeaderSize {
		n := binary.LittleEndian.Uint32(b)
		if n == 0 || n > MaxRecordSize || uint64(n) > uint64(len(b)-frameHeaderSize) {
			return recs, false
		}
		p := b[frameHeaderSize : frameHeaderSize+int(n)]
		if crc32.ChecksumIEEE(p) != binary.LittleEndian.Uint32(b[4:]) || 1+int(p[0]) > len(p) {
			return recs, false
		}
		recs = append(recs, rec{string(p[1 : 1+p[0]]), string(p[1+p[0]:])})
		b = b[frameHeaderSize+int(n):]
	}
	return recs, len(b) == 0
}

// FuzzWALReplay writes arbitrary bytes as a log's first segment and, when
// there are any, as the snapshot cut against it, then recovers the log.
// Recovery must not panic or fail. It must replay the snapshot's records
// if every byte of the snapshot is a valid frame (else none of them),
// followed by the segment's records up to its first bad frame: a prefix of
// what was framed, nothing reordered or invented. The log must then accept
// an append, which a reopened log replays after that same prefix, so the
// torn tail was truncated rather than left in front of new records.
func FuzzWALReplay(f *testing.F) {
	frames := func(recs ...rec) []byte {
		var b []byte
		for _, r := range recs {
			b, _ = appendFrame(b, r.op, []byte(r.data))
		}
		return b
	}
	log3 := frames(rec{"put", "a"}, rec{"put", "bb"}, rec{"del", ""})
	snap := frames(rec{"set", "s1"}, rec{"set", "s2"})
	flipped := append([]byte(nil), snap...)
	flipped[frameHeaderSize+2] ^= 0x40
	for _, c := range []struct{ snap, seg []byte }{
		{nil, nil},
		{nil, log3},
		{nil, log3[:len(log3)-3]},
		{nil, append(frames(rec{"put", "a"}), "\x05\x00\x00\x00junk"...)},
		{snap, log3},
		{snap[:5], log3},
		{flipped, log3},
		{snap, log3[:frameHeaderSize+2]},
	} {
		f.Add(c.snap, c.seg)
	}
	f.Fuzz(func(t *testing.T, snap, seg []byte) {
		if len(snap)+len(seg) > 1<<16 {
			return
		}
		dir := t.TempDir()
		names := &Log{dir: dir}
		if len(snap) > 0 {
			if err := os.WriteFile(names.snapPath(1), snap, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(names.segPath(1), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		want, _ := framed(seg)
		if snapRecs, clean := framed(snap); len(snap) > 0 && clean {
			want = append(snapRecs, want...)
		}

		replay := func() []rec {
			l, err := Open(dir, Options{NoSync: true})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer l.Close()
			got := replayT(t, l)
			if err := l.Append("after", []byte("append")); err != nil {
				t.Fatalf("Append after recovery: %v", err)
			}
			return got
		}
		if got := replay(); !slices.Equal(got, want) {
			t.Fatalf("recovered %q, want %q", got, want)
		}
		want = append(want, rec{"after", "append"})
		if got := replay(); !slices.Equal(got, want) {
			t.Fatalf("after an append, recovered %q, want %q", got, want)
		}
	})
}
