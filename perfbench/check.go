package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"bdrmap/internal/mapdb"
)

// pins.json holds the outputs pinned for chosen seeds: the served link set,
// the §5.6 validation counts and the segment-image hash of a cold-map run,
// and the per-round trace fingerprints and final map of a rounds pass.
// Every world of the r&e pool is pinned for both pass lengths, and
// cold-map seeds 1 to coldPinnedSeeds; a run on one of those without its
// pin fails. Other cold-map seeds are still checked for internal
// consistency (every round of a run agrees with itself, the segment on
// disk reopens to the published bytes, and the traced run reproduces the
// untraced one).
//
//go:embed pins.json
var pinsJSON []byte

// coldPinnedSeeds is the last cold-map seed pins.json covers.
const coldPinnedSeeds = 10

type coldPin struct {
	Links        int    `json:"links"`
	LinksSHA     string `json:"links_sha256"`
	SegmentSHA   string `json:"segment_sha256"`
	ValidCorrect int    `json:"valid_correct"`
	ValidTotal   int    `json:"valid_total"`
}

type roundsPin struct {
	TraceFPs   []string `json:"trace_fps"`
	LinksSHA   string   `json:"links_sha256"`
	SegmentSHA string   `json:"segment_sha256"`
}

type pinFile struct {
	Cold   map[string]coldPin   `json:"cold-map"`
	Rounds map[string]roundsPin `json:"rounds"`
}

func loadPins() (pinFile, error) {
	var p pinFile
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return p, fmt.Errorf("pins.json: %w", err)
	}
	return p, nil
}

// pinKey names one pinned run: the profile, the number of rounds (0 for
// a cold round) and the world or churn seed.
func pinKey(profile string, rounds int, seed int64) string {
	return fmt.Sprintf("%s/%d/%d", profile, rounds, seed)
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// linksDigest hashes a served link set in its canonical text form.
func linksDigest(links []mapdb.Link) string {
	lines := make([]string, len(links))
	for i, l := range links {
		lines[i] = fmt.Sprintf("%v %v %d %s", l.Near, l.Far, l.FarAS, l.Heuristic)
	}
	sort.Strings(lines)
	return sha([]byte(strings.Join(lines, "\n")))
}

// diffCold lists how a cold-map round's outputs differ from its pin.
func diffCold(want, got coldPin) []string {
	var out []string
	if want.Links != got.Links {
		out = append(out, fmt.Sprintf("served links %d, pinned %d", got.Links, want.Links))
	}
	if want.LinksSHA != got.LinksSHA {
		out = append(out, "served link set differs from the pinned set")
	}
	if want.SegmentSHA != got.SegmentSHA {
		out = append(out, "segment image hash differs from the pinned hash")
	}
	if want.ValidCorrect != got.ValidCorrect || want.ValidTotal != got.ValidTotal {
		out = append(out, fmt.Sprintf("§5.6 validation %d/%d, pinned %d/%d",
			got.ValidCorrect, got.ValidTotal, want.ValidCorrect, want.ValidTotal))
	}
	return out
}

// diffRounds lists how a rounds pass's outputs differ from its pin.
func diffRounds(want, got roundsPin) []string {
	var out []string
	if strings.Join(want.TraceFPs, ",") != strings.Join(got.TraceFPs, ",") {
		out = append(out, fmt.Sprintf("trace fingerprints %v, pinned %v", got.TraceFPs, want.TraceFPs))
	}
	if want.LinksSHA != got.LinksSHA {
		out = append(out, "final link set differs from the pinned set")
	}
	if want.SegmentSHA != got.SegmentSHA {
		out = append(out, "final segment image differs from the pinned image")
	}
	return out
}

// printPins writes the outputs this run computed in pins.json form, for
// extending the pin table.
func printPins(p pinFile) {
	out, _ := json.Marshal(p)
	fmt.Fprintf(os.Stderr, "pins: %s\n", out)
}
