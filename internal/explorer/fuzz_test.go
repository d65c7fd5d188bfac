package explorer

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"github.com/sandtable-go/sandtable/internal/transport"
)

// Fuzz targets for the decoders of checkpoint bytes: one envelope reader,
// one delta-payload parser, one frontier-record reader. None may panic or
// size an allocation from a count the input cannot back. Seeds are real
// files written by toy runs.

// toySnapshots writes a single-process checkpoint chain (base + deltas) and
// a committed 2-peer cluster checkpoint of the atomic toy, returning their
// directories.
func toySnapshots(f *testing.F) (single, cluster string) {
	f.Helper()
	single, cluster = f.TempDir(), f.TempDir()
	res := NewChecker(newToy(3, true), Options{MaxDepth: 4, Checkpoint: CheckpointOptions{Dir: single, EveryStates: 1}}).Run()
	if res.Err != nil || res.Checkpoints < 2 {
		f.Fatalf("seed chain: err=%v checkpoints=%d", res.Err, res.Checkpoints)
	}
	conns := transport.NewMesh(2)
	done := make(chan *Result, len(conns))
	for _, conn := range conns {
		go func() {
			done <- NewChecker(newToy(3, true), Options{
				MaxDepth: 3, Peer: &PeerOptions{Conn: conn},
				Checkpoint: CheckpointOptions{Dir: cluster, EveryStates: 1},
			}).Run()
		}()
	}
	for range conns {
		if res := <-done; res.Err != nil || res.Checkpoints == 0 {
			f.Fatalf("seed cluster checkpoint: err=%v checkpoints=%d", res.Err, res.Checkpoints)
		}
	}
	return single, cluster
}

// FuzzReadSnapshot mutates a snapshot body; the harness seals it with a
// valid checksum so mutations reach the parser (the checksum itself is
// TestResumeFailsLoudly's). Each input is read under both identities the
// seeds were written with, and whatever the reader accepts goes through the
// frontier verification a resume would run.
func FuzzReadSnapshot(f *testing.F) {
	single, cluster := toySnapshots(f)
	peerSnaps, err := filepath.Glob(filepath.Join(clusterPeerDir(cluster, 1), "cluster-*.snap"))
	if err != nil || len(peerSnaps) == 0 {
		f.Fatalf("no per-peer seed snapshot: %v", err)
	}
	for _, path := range []string{filepath.Join(single, snapFile), peerSnaps[0]} {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw[:len(raw)-4])
	}
	proto := NewChecker(newToy(3, true), Options{})
	idents := []runIdentity{proto.identity(), proto.identity()}
	idents[1].Peers, idents[1].Partition = 2, transport.PartitionVersion

	f.Fuzz(func(t *testing.T, body []byte) {
		raw := binary.LittleEndian.AppendUint32(body[:len(body):len(body)], crc32.ChecksumIEEE(body))
		for _, id := range idents {
			c := NewChecker(newToy(3, true), Options{})
			c.ident = id
			snap, err := c.readSnapshot("fuzz", raw)
			if err != nil {
				continue
			}
			c.visited = snap.set
			_ = c.restoreFrontier(snap)
		}
	})
}

// FuzzParseDeltaPayload mutates a delta block payload and decodes the
// frontier section of whatever parses.
func FuzzParseDeltaPayload(f *testing.F) {
	single, _ := toySnapshots(f)
	log, err := os.ReadFile(filepath.Join(single, deltaFile))
	if err != nil || len(log) <= deltaBlockHead {
		f.Fatalf("no seed delta log: %v", err)
	}
	first := binary.LittleEndian.Uint64(log[8:16])
	f.Add(log[deltaBlockHead : deltaBlockHead+first])
	codec := newToy(3, true)

	f.Fuzz(func(t *testing.T, payload []byte) {
		blk, err := parseDeltaPayload(payload)
		if err != nil {
			return
		}
		_, _ = readFrontier(blk.frontierRecs, blk.frontierCount, codec)
	})
}

// FuzzFrontierRecords mutates a run of frontier records and the count that
// claims to describe it.
func FuzzFrontierRecords(f *testing.F) {
	m := newToy(3, false)
	var entries []frontierEntry
	for _, su := range m.Next(m.Init()[0]) {
		entries = append(entries, frontierEntry{state: su.State, fp: su.State.Fingerprint()})
	}
	var seed bytes.Buffer
	if _, err := writeFrontierRecords(&seed, entries, m); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes(), uint64(len(entries)))
	f.Add(seed.Bytes(), ^uint64(0))

	f.Fuzz(func(t *testing.T, recs []byte, count uint64) {
		got, err := readFrontier(recs, count, m)
		if err == nil && uint64(len(got)) != count {
			t.Fatalf("readFrontier returned %d entries for count %d without error", len(got), count)
		}
		// The header walk must agree with the decoder on where records end.
		if split, rest, serr := splitFrontierRecords(recs, count); err == nil && (serr != nil || len(rest) != 0 || len(split) != len(recs)) {
			t.Fatalf("readFrontier accepted %d bytes as %d records, splitFrontierRecords says %d+%d (%v)", len(recs), count, len(split), len(rest), serr)
		}
	})
}
