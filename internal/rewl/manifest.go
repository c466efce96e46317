package rewl

// Round manifests for checkpoints. Each rank keeps its last K
// checkpoint rounds as separate files (rewl-rank<r>-round<n>.ckpt) plus a
// JSON manifest (rewl-rank<r>.manifest) recording every retained round
// with its file size and FNV-64a checksum. The manifest is what makes
// resume negotiable: a rank's *available* rounds are exactly the manifest
// entries whose files still verify, so a truncated or corrupt checkpoint
// silently drops out of the offer and the world falls back to the newest
// round every rank can still prove it holds — instead of one bad file
// aborting the restart.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"

	"deepthermo/internal/fsx"
)

// manifestVersion guards the manifest JSON schema.
const manifestVersion = 1

// defaultCheckpointRetain is how many checkpoint rounds each rank keeps
// when Options.CheckpointRetain is unset.
const defaultCheckpointRetain = 3

// DistManifestPath returns rank's round manifest inside dir.
func DistManifestPath(dir string, rank int) string {
	return filepath.Join(dir, fmt.Sprintf("rewl-rank%d.manifest", rank))
}

// distRoundPath returns rank's checkpoint file for one retained round.
func distRoundPath(dir string, rank, round int) string {
	return filepath.Join(dir, fmt.Sprintf("rewl-rank%d-round%d.ckpt", rank, round))
}

// ckptEntry is one retained round in a rank's manifest.
type ckptEntry struct {
	Round int    `json:"round"`
	File  string `json:"file"` // base name within the checkpoint dir
	Size  int64  `json:"size"`
	Sum   string `json:"fnv64a"` // %016x of the file bytes
}

// ckptManifest is a rank's retained-round index, rounds ascending.
type ckptManifest struct {
	Version int         `json:"version"`
	Rank    int         `json:"rank"`
	Rounds  []ckptEntry `json:"rounds"`
}

// fnv64aSum checksums a byte blob with FNV-64a.
func fnv64aSum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// readManifest loads a rank's manifest; missing or unreadable manifests
// return an empty one (the corresponding rounds are simply unavailable).
func readManifest(dir string, rank int) *ckptManifest {
	mf := &ckptManifest{Version: manifestVersion, Rank: rank}
	b, err := os.ReadFile(DistManifestPath(dir, rank))
	if err != nil {
		return mf
	}
	var got ckptManifest
	if json.Unmarshal(b, &got) != nil || got.Version != manifestVersion || got.Rank != rank {
		return mf
	}
	return &got
}

// writeDistRound persists one checkpoint round for a rank: the round file
// is written atomically, the manifest gains (or refreshes) its entry, and
// rounds beyond the retention window are deleted. The manifest is written
// after the round file, so a crash between the two leaves at worst an
// orphaned round file — never a manifest entry without a verifiable file.
func writeDistRound(dir string, rank, round, retain int, blob []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := distRoundPath(dir, rank, round)
	if err := fsx.WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(blob)
		return err
	}); err != nil {
		return err
	}
	mf := readManifest(dir, rank)
	entry := ckptEntry{
		Round: round,
		File:  filepath.Base(path),
		Size:  int64(len(blob)),
		Sum:   fmt.Sprintf("%016x", fnv64aSum(blob)),
	}
	out := mf.Rounds[:0]
	for _, e := range mf.Rounds {
		if e.Round != round {
			out = append(out, e)
		}
	}
	mf.Rounds = append(out, entry)
	sort.Slice(mf.Rounds, func(i, j int) bool { return mf.Rounds[i].Round < mf.Rounds[j].Round })
	if retain <= 0 {
		retain = defaultCheckpointRetain
	}
	for len(mf.Rounds) > retain {
		stale := mf.Rounds[0]
		mf.Rounds = mf.Rounds[1:]
		os.Remove(filepath.Join(dir, stale.File)) //nolint:errcheck // best-effort prune
	}
	return fsx.WriteFileAtomic(DistManifestPath(dir, rank), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(mf)
	})
}

// readRoundBlob returns the verified bytes of one manifest entry, or an
// error if the file is missing, truncated, or fails its checksum.
func readRoundBlob(dir string, e ckptEntry) ([]byte, error) {
	b, err := os.ReadFile(filepath.Join(dir, e.File))
	if err != nil {
		return nil, err
	}
	if int64(len(b)) != e.Size {
		return nil, fmt.Errorf("rewl: checkpoint %s is %d bytes, manifest says %d (truncated?)", e.File, len(b), e.Size)
	}
	if sum := fmt.Sprintf("%016x", fnv64aSum(b)); sum != e.Sum {
		return nil, fmt.Errorf("rewl: checkpoint %s checksum %s, manifest says %s (corrupt)", e.File, sum, e.Sum)
	}
	return b, nil
}

// availableRounds returns the checkpoint rounds rank can actually restore
// from, newest first: manifest entries whose files verify byte-for-byte
// AND decode to a well-formed checkpoint of this rank in a world of size
// ranks. A corrupt, truncated, or foreign round is skipped, not fatal.
func availableRounds(dir string, rank, size int) []int {
	seen := map[int]bool{}
	var rounds []int
	for _, e := range readManifest(dir, rank).Rounds {
		blob, err := readRoundBlob(dir, e)
		if err != nil || seen[e.Round] {
			continue
		}
		if ck, err := decodeDistCheckpoint(blob, rank, size); err != nil || ck.Round != e.Round {
			continue
		}
		seen[e.Round] = true
		rounds = append(rounds, e.Round)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(rounds)))
	return rounds
}

// loadDistRoundBlob returns the verified gob bytes of rank's checkpoint
// for one specific round — the payload the leader ships to a replacement
// worker that has no local checkpoint of its own.
func loadDistRoundBlob(dir string, rank, round int) ([]byte, error) {
	for _, e := range readManifest(dir, rank).Rounds {
		if e.Round == round {
			return readRoundBlob(dir, e)
		}
	}
	return nil, fmt.Errorf("rewl: rank %d has no checkpoint for round %d", rank, round)
}

// loadDistRound loads rank's checkpoint for one round.
func loadDistRound(dir string, rank, round, size int) (*distCheckpoint, error) {
	blob, err := loadDistRoundBlob(dir, rank, round)
	if err != nil {
		return nil, err
	}
	ck, err := decodeDistCheckpoint(blob, rank, size)
	if err != nil {
		return nil, err
	}
	if ck.Round != round {
		return nil, fmt.Errorf("rewl: rank %d checkpoint claims round %d, wanted %d", rank, ck.Round, round)
	}
	return ck, nil
}

// newestCommonRound returns the largest round present in every list, or 0
// (start fresh) when no round is universal. Lists are as returned by
// availableRounds (descending).
func newestCommonRound(lists [][]int) int {
	if len(lists) == 0 {
		return 0
	}
	counts := map[int]int{}
	for _, l := range lists {
		for _, r := range l {
			counts[r]++
		}
	}
	best := 0
	for r, n := range counts {
		if n == len(lists) && r > best {
			best = r
		}
	}
	return best
}
