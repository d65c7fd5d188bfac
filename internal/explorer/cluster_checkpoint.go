package explorer

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Cluster checkpoints are per-peer snapshots — the same envelope, writer,
// reader, cadence and call site as single-process ones (checkpoint.go), with
// no delta chain — taken at a level barrier, all peers at the same depth: the
// coordinator reads the cadence against the previous level's global distinct
// count and its decision travels in the data-barrier summary. The commit
// point is the coordinator's manifest, written only after a resolve barrier
// confirms every peer's snapshot succeeded — a crash between snapshots and
// manifest leaves the previous manifest (and the snapshots it references)
// authoritative. Peer snapshots are depth-stamped
// (peer-<id>/cluster-<depth>.snap) so an uncommitted write never clobbers the
// committed one; depths below the manifest are pruned on the coordinator's
// instruction, one committed level later. Resume reloads exactly each peer's
// shard and the cluster restarts at the manifest depth after the hello
// barrier re-validates compatibility.

const clusterManifestFile = "cluster-manifest.json"

// clusterManifest is the cluster-wide commit record: the depth at which
// every peer holds a validated snapshot, plus the run identity resume
// re-checks.
type clusterManifest struct {
	Version int `json:"version"`
	runIdentity
	Depth int `json:"depth"`
}

func clusterPeerDir(dir string, peer int) string {
	return filepath.Join(dir, fmt.Sprintf("peer-%d", peer))
}

func clusterSnapPath(dir string, peer, depth int) string {
	return filepath.Join(clusterPeerDir(dir, peer), fmt.Sprintf("cluster-%06d.snap", depth))
}

// writeClusterManifest commits the cluster checkpoint at depth. Coordinator
// only, called after a resolve barrier confirmed every peer's snapshot.
func (c *Checker) writeClusterManifest(depth int) error {
	raw, err := json.MarshalIndent(clusterManifest{Version: snapVersion, runIdentity: c.ident, Depth: depth}, "", "  ")
	if err != nil {
		return err
	}
	return atomicWrite(filepath.Join(c.opts.Checkpoint.Dir, clusterManifestFile), func(w io.Writer) error {
		_, err := w.Write(append(raw, '\n'))
		return err
	})
}

// pruneClusterSnaps deletes this peer's snapshots below the last committed
// manifest depth. Best-effort: a leftover file is wasted disk, not a
// correctness problem.
func (c *Checker) pruneClusterSnaps(cl *clusterCtx, below int) {
	dir := clusterPeerDir(c.opts.Checkpoint.Dir, cl.self)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		var d int
		if _, err := fmt.Sscanf(e.Name(), "cluster-%06d.snap", &d); err != nil {
			continue
		}
		if d < below {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// loadClusterSnapshot loads this peer's shard at the manifest's committed
// depth, validating the manifest and the snapshot against the running
// configuration. Called before the hello barrier, which then cross-checks
// that every peer resumed from the same depth.
func (c *Checker) loadClusterSnapshot() (*snapshot, error) {
	cl, dir := c.cluster, c.opts.Checkpoint.Dir
	mpath := filepath.Join(dir, clusterManifestFile)
	mraw, err := os.ReadFile(mpath)
	if err != nil {
		return nil, err
	}
	var man clusterManifest
	if err := json.Unmarshal(mraw, &man); err != nil {
		return nil, fmt.Errorf("%s: %w", mpath, err)
	}
	if man.Version != snapVersion {
		return nil, fmt.Errorf("%s: manifest version %d, this build reads %d", mpath, man.Version, snapVersion)
	}
	if err := c.checkIdentity(mpath, man.runIdentity); err != nil {
		return nil, err
	}
	path := clusterSnapPath(dir, cl.self, man.Depth)
	snap, err := c.loadSnapshot(path)
	if err != nil {
		return nil, err
	}
	if snap.header.PeerID != cl.self {
		return nil, fmt.Errorf("%s: snapshot belongs to peer %d, this is peer %d", path, snap.header.PeerID, cl.self)
	}
	if snap.header.Depth != man.Depth {
		return nil, fmt.Errorf("%s: snapshot depth %d, manifest committed %d", path, snap.header.Depth, man.Depth)
	}
	if err := c.restoreFrontier(snap); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	cl.pruneBelow = man.Depth
	return snap, nil
}
