package store

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// fuzzSeedBody builds a well-formed segment body (records of every
// type, magic stripped) by writing through a real store.
func fuzzSeedBody(f *testing.F) []byte {
	f.Helper()
	dir := f.TempDir()
	s, _, err := Open(Options{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		f.Fatal(err)
	}
	base := time.Unix(5000, 0)
	s.SessionCreated("s0001", base, []byte(`{"scenario":"wire"}`), 42)
	s.SessionState("s0001", base, "running", false, "", 0, 42)
	s.SessionPoint("s0001", Point{
		At: base.UnixNano(), SlotsDone: 7, M: 21, Frequency: 0.125,
		Duration: 1.5, HasDuration: true,
		ProbesSent: 21, ProbesLost: 2, PacketsSent: 63, PacketsLost: 5,
		Experiments: 21,
	})
	s.SessionPoint("s0001", Point{At: base.Add(time.Second).UnixNano(), SlotsDone: 9, M: 30})
	s.RegistryTotals(Totals{SessionsCreated: 1, ProbesSent: 10, PacketsSent: 30})
	s.SessionState("s0001", base.Add(time.Minute), "done", true, "boom", 1, 42)
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		f.Fatal(err)
	}
	return raw[len(segMagic):]
}

// FuzzWALDecode throws arbitrary bytes at the segment scanner and the
// record decoder. Invariants: never panic, never read past the input,
// and the reported valid prefix must rescan cleanly to the same record
// count — the recovery path's durable-prefix contract.
func FuzzWALDecode(f *testing.F) {
	seed := fuzzSeedBody(f)
	f.Add(seed)
	f.Add(seed[:len(seed)-3]) // torn tail
	f.Add([]byte{})
	f.Add([]byte("not a wal segment at all"))

	// flipped CRC byte in the first record
	bad := append([]byte(nil), seed...)
	bad[4] ^= 0xff
	f.Add(bad)

	// garbage lengths
	huge := append([]byte(nil), seed...)
	binary.LittleEndian.PutUint32(huge, 0xffffffff)
	f.Add(huge)
	over := append([]byte(nil), seed...)
	binary.LittleEndian.PutUint32(over, maxRecord+1)
	f.Add(over)

	f.Fuzz(func(t *testing.T, data []byte) {
		records := 0
		valid, clean := scanSegment(data, func(record) { records++ })
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid=%d out of [0,%d]", valid, len(data))
		}
		if clean && valid != len(data) {
			t.Fatalf("clean scan stopped early: %d != %d", valid, len(data))
		}
		// the reported valid prefix must itself rescan as a clean
		// segment with the same record count
		re := 0
		reValid, reClean := scanSegment(data[:valid], func(record) { re++ })
		if !reClean || reValid != valid || re != records {
			t.Fatalf("prefix rescan: valid %d/%d clean %v records %d/%d",
				reValid, valid, reClean, re, records)
		}

		// decodeRecord directly on raw bytes (bypassing the CRC gate)
		// must never panic or over-read either
		_, _ = decodeRecord(data)

		// pointCounts walks the frames unchecked: it must not panic,
		// and over the valid prefix it counts exactly the point records
		// the scanner decodes.
		_ = pointCounts(data)
		want := make(map[string]int)
		scanSegment(data[:valid], func(r record) {
			if r.typ == recPoint {
				want[r.id]++
			}
		})
		got := pointCounts(data[:valid])
		if len(got) != len(want) {
			t.Fatalf("pointCounts found %d sessions, the scanner %d", len(got), len(want))
		}
		for id, n := range want {
			if c := got[id]; c == nil || *c != n {
				t.Fatalf("pointCounts for %q: %v, the scanner decoded %d", id, c, n)
			}
		}
	})
}
