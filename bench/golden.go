package main

import (
	"embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// The tracked verification data: report digests and simulated statistics
// of each workload at seed 1, written by -update-golden. They are built
// into the binary, so a run needs no path to find them.
//
//go:embed golden/*.json
var goldenFS embed.FS

type goldenCampaign struct {
	Label    string `json:"label"`
	Identity string `json:"identity"`
	Digest   string `json:"digest"`
}

// goldenFile holds what a workload's reports must hash to at one seed.
type goldenFile struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Stats     simStats         `json:"simulated"`
	Campaigns []goldenCampaign `json:"campaigns"`
}

func goldenName(workload string, seed int64) string {
	return fmt.Sprintf("%s-seed%d.json", workload, seed)
}

// loadGolden returns the tracked golden file of a workload and seed, nil
// when there is none.
func loadGolden(workload string, seed int64) (*goldenFile, error) {
	data, err := goldenFS.ReadFile("golden/" + goldenName(workload, seed))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden %s: %w", goldenName(workload, seed), err)
	}
	return &g, nil
}

// apply sets the expected digest of every campaign from the golden file.
// A campaign the file does not describe -- another label or identity at
// its place in the list -- can never be verified, and is marked so.
func (g *goldenFile) apply(camps []*camp) {
	for i, c := range camps {
		switch {
		case i >= len(g.Campaigns):
			c.bad = fmt.Errorf("campaign %s (identity %s): not in the golden file, which lists %d campaigns",
				c.label, c.idHex(), len(g.Campaigns))
		case g.Campaigns[i].Label != c.label || g.Campaigns[i].Identity != c.idHex():
			c.bad = fmt.Errorf("campaign %s (identity %s): the golden file has %s (identity %s) at its place",
				c.label, c.idHex(), g.Campaigns[i].Label, g.Campaigns[i].Identity)
		default:
			digest, err := hex.DecodeString(g.Campaigns[i].Digest)
			if err != nil || len(digest) != len(c.want) {
				c.bad = fmt.Errorf("campaign %s: malformed golden digest %q", c.label, g.Campaigns[i].Digest)
				continue
			}
			copy(c.want[:], digest)
			c.wantFrom = "golden"
		}
	}
}

// digests lists what every campaign's report hashed to, in list order.
func digests(camps []*camp) []goldenCampaign {
	out := make([]goldenCampaign, len(camps))
	for i, c := range camps {
		out[i] = goldenCampaign{c.label, c.idHex(), hex.EncodeToString(c.want[:])}
	}
	return out
}

// writeGolden records the digests and statistics of a correct run as the
// golden file of its workload and seed. It writes into the source tree:
// bench/golden from the root of the repository, golden from bench.
func writeGolden(r *result) (string, error) {
	dir := "golden"
	if _, err := os.Stat(filepath.Join("bench", "golden")); err == nil {
		dir = filepath.Join("bench", "golden")
	}
	g := goldenFile{Workload: r.Workload, Seed: r.Seed, Stats: r.Stats, Campaigns: r.Campaigns}
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, goldenName(r.Workload, r.Seed))
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
