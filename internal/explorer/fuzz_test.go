package explorer

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/sandtable-go/sandtable/internal/transport"
)

// Fuzz targets for the decoders of checkpoint bytes: the chain-log reader
// (on whole logs, on a first block's payload and on a later block's
// payload), one frontier-record reader, one manifest reader. None may panic
// or size an allocation from a count the input cannot back. Seeds are real
// files written by toy runs.

// toySnapshots writes a single-process checkpoint chain (a log of several
// blocks) and a committed 2-peer cluster checkpoint of the atomic toy,
// returning their directories.
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

// FuzzReadLog mutates a chain log; the harness reseals every block whose
// length fits so mutations reach the parser (the checksum itself is
// TestResumeFailsLoudly's). The seeds are a solo log of a first block and
// later blocks, and peer 1's log of a 2-peer run. Each input is read as
// either peer under both identities the seeds were written with, and
// whatever the reader accepts goes through the frontier verification a
// resume would run.
func FuzzReadLog(f *testing.F) {
	single, cluster := toySnapshots(f)
	for _, path := range []string{
		committedLog(f, single),
		filepath.Join(peerDir(cluster, 1, 2), committed(f, cluster).Chains[1].Log),
	} {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	proto := NewChecker(newToy(3, true), Options{})
	idents := []runIdentity{proto.identity(), proto.identity()}
	idents[1].Peers, idents[1].Partition = 2, transport.PartitionVersion

	f.Fuzz(func(t *testing.T, raw []byte) {
		raw = bytes.Clone(raw)
		sealBlocks(raw)
		for _, id := range idents {
			for peer := range 2 {
				c := NewChecker(newToy(3, true), Options{})
				c.ident = id
				blocks, err := c.readLog("fuzz", raw, peer)
				if err != nil || len(blocks) == 0 {
					continue
				}
				_, _ = c.restoreFrontier(&blocks[len(blocks)-1])
			}
		}
	})
}

// logPayloads splits the chain log at path into its blocks' payloads,
// trusting the envelope: the logs are the seeds' own.
func logPayloads(f *testing.F, path string) [][]byte {
	f.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	var payloads [][]byte
	for off := 0; off+blockHead <= len(raw); {
		end := off + blockHead + int(binary.LittleEndian.Uint64(raw[off+8:]))
		payloads = append(payloads, raw[off+blockHead:end])
		off = end
	}
	return payloads
}

// frameBlock puts payload in a block envelope with a valid checksum.
func frameBlock(payload []byte) []byte {
	blk := binary.LittleEndian.AppendUint64([]byte(blockMagic), uint64(len(payload)))
	blk = binary.LittleEndian.AppendUint32(blk, crc32.ChecksumIEEE(payload))
	return append(blk, payload...)
}

// FuzzReadSnapshot mutates the payload of a log's first block — the base
// snapshot, which holds the whole fingerprint set; the harness frames and
// seals it, so every mutation reaches the payload parser. The seeds are the
// solo log's first block and peer 1's. Each input is read as a one-block log
// by either peer under both identities the seeds were written with, and
// whatever the reader accepts goes through the frontier verification a
// resume would run.
func FuzzReadSnapshot(f *testing.F) {
	single, cluster := toySnapshots(f)
	for _, path := range []string{
		committedLog(f, single),
		filepath.Join(peerDir(cluster, 1, 2), committed(f, cluster).Chains[1].Log),
	} {
		f.Add(logPayloads(f, path)[0])
	}
	proto := NewChecker(newToy(3, true), Options{})
	idents := []runIdentity{proto.identity(), proto.identity()}
	idents[1].Peers, idents[1].Partition = 2, transport.PartitionVersion

	f.Fuzz(func(t *testing.T, payload []byte) {
		raw := frameBlock(payload)
		for _, id := range idents {
			for peer := range 2 {
				c := NewChecker(newToy(3, true), Options{})
				c.ident = id
				blocks, err := c.readLog("fuzz", raw, peer)
				if err != nil {
					continue
				}
				if len(blocks) != 1 {
					t.Fatalf("one framed block read as %d", len(blocks))
				}
				_, _ = c.restoreFrontier(&blocks[0])
			}
		}
	})
}

// FuzzParseDeltaPayload mutates the payload of a later block — the entries
// found since the block before it — and reads it framed and sealed after
// the solo log's first block, so the header's depth is checked against a
// real predecessor. Whatever the reader accepts goes through the frontier
// verification a resume would run.
func FuzzParseDeltaPayload(f *testing.F) {
	single, _ := toySnapshots(f)
	payloads := logPayloads(f, committedLog(f, single))
	if len(payloads) < 2 {
		f.Fatalf("seed log holds %d blocks, want a first block and a later one", len(payloads))
	}
	f.Add(payloads[1])
	first := frameBlock(payloads[0])
	ident := NewChecker(newToy(3, true), Options{}).identity()

	f.Fuzz(func(t *testing.T, payload []byte) {
		raw := append(bytes.Clone(first), frameBlock(payload)...)
		c := NewChecker(newToy(3, true), Options{})
		c.ident = ident
		blocks, err := c.readLog("fuzz", raw, 0)
		if err != nil {
			return
		}
		if len(blocks) != 2 {
			t.Fatalf("two framed blocks read as %d", len(blocks))
		}
		_, _ = c.restoreFrontier(&blocks[1])
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
// and this run's, with one position per peer, at least one block in a
// positive length, and log names that are plain chain-file names — nothing
// collect or load could be steered outside the peer's directory with.
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
				if p.Bytes <= 0 || p.Blocks <= 0 || !chainFile.MatchString(p.Log) ||
					strings.ContainsAny(p.Log, `/\`) || strings.Contains(p.Log, "..") {
					t.Fatalf("accepted chain position %+v", p)
				}
			}
		}
	})
}

// FuzzClusterHello feeds a peer's hello summary — the first barrier's, parsed
// before any exploration — to the per-peer check. No input may panic;
// whatever it accepts carries this peer's run identity and checkpoint
// flags, and everything else ends in config-error.
func FuzzClusterHello(f *testing.F) {
	me := clusterHello{runIdentity: runIdentity{Label: "toy/n3", Machine: "toy", Symmetry: true, InitDigest: 42, Peers: 2, Partition: 1}}
	for _, h := range []clusterHello{
		me,
		{runIdentity: me.runIdentity, Checkpoint: true, Resume: true, Manifest: []byte(`{"depth":3}`)},
		{runIdentity: me.runIdentity, Checkpoint: true, Resume: true, ResumeErr: "no manifest"},
		{runIdentity: runIdentity{Machine: "toy", InitDigest: 43, Peers: 2, Partition: 1}},
	} {
		raw, err := json.Marshal(h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw, h.Checkpoint, h.Resume)
	}
	f.Add([]byte(`{"machine":"toy","symmetry":"yes"}`), false, false)
	f.Add([]byte(`null`), false, false)
	f.Add([]byte(`[`), true, false)
	f.Fuzz(func(t *testing.T, raw []byte, checkpoint, resume bool) {
		me := me
		me.Checkpoint, me.Resume = checkpoint, resume
		h, bad := peerHello(1, raw, me)
		if bad != nil {
			if bad.reason != "config-error" || bad.err == nil {
				t.Fatalf("rejected with %q: %v", bad.reason, bad.err)
			}
			return
		}
		if h.runIdentity != me.runIdentity || h.Checkpoint != me.Checkpoint || h.Resume != me.Resume {
			t.Fatalf("accepted %+v, this peer %+v", h, me)
		}
	})
}
