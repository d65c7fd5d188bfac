package explorer

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/sandtable-go/sandtable/internal/transport"
)

// Fuzz targets for the decoders of checkpoint bytes: one envelope reader,
// one delta-payload parser, one frontier-record reader, one manifest reader.
// None may panic or size an allocation from a count the input cannot back.
// Seeds are real files written by toy runs.

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
	peerBase := filepath.Join(peerDir(cluster, 1, 2), committed(f, cluster).Chains[1].Base)
	for _, path := range []string{committedBase(f, single), peerBase} {
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
	log, err := os.ReadFile(filepath.Join(single, deltaName(committed(f, single).Chains[0].Base)))
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
	for _, su := range m.AppendNext(m.Init()[0], nil) {
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

// FuzzReadManifest mutates a manifest and reads it under both identities the
// seeds were written with. Whatever the reader accepts must be this version's
// and this run's, with one position per peer, no negative length or count,
// and base names that are plain chain-file names — nothing collect or load
// could be steered outside the peer's directory with.
func FuzzReadManifest(f *testing.F) {
	single, cluster := toySnapshots(f)
	for _, dir := range []string{single, cluster} {
		raw, err := os.ReadFile(filepath.Join(dir, ManifestFile))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	proto := NewChecker(newToy(3, true), Options{})
	idents := []runIdentity{proto.identity(), proto.identity()}
	idents[1].Peers, idents[1].Partition = 2, transport.PartitionVersion

	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, id := range idents {
			c := NewChecker(newToy(3, true), Options{})
			c.ident = id
			m, err := c.parseManifest("fuzz", raw)
			if err != nil {
				continue
			}
			got := m.runIdentity
			got.Label = "" // an empty label matches any
			if m.Version != snapVersion || got != id || len(m.Chains) != max(1, id.Peers) {
				t.Fatalf("accepted manifest %+v under identity %+v", m, id)
			}
			for _, p := range m.Chains {
				if p.DeltaBytes < 0 || p.Deltas < 0 || !chainFile.MatchString(p.Base) ||
					strings.ContainsAny(p.Base, `/\`) || strings.Contains(p.Base, "..") || deltaName(p.Base) == p.Base {
					t.Fatalf("accepted chain position %+v", p)
				}
			}
		}
	})
}
