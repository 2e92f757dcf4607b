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

	"vdirect/internal/mmu"
)

// defaultSeed is the seed the golden digests are recorded for.
const defaultSeed = 1

// goldenPath is golden.json relative to the checkout root, where the
// benchmark runs.
const goldenPath = "perfbench/golden.json"

// golden maps workload → output name → SHA-256 of that output at the
// default seed.
//
//go:embed golden.json
var goldenJSON []byte

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func loadGolden() (map[string]map[string]string, error) {
	g := map[string]map[string]string{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	return g, nil
}

// writeGolden records one workload's digests into golden.json, keeping
// the other workloads' entries.
func writeGolden(name string, digests map[string]string) error {
	g, err := loadGolden()
	if err != nil {
		return err
	}
	g[name] = digests
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(b, '\n'), 0o644)
}

// diffDigests names every output whose digest differs from want, or
// that is missing on either side; empty means equal.
func diffDigests(got, want map[string]string) string {
	var bad []string
	for k, w := range want {
		if got[k] != w {
			bad = append(bad, k)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			bad = append(bad, k)
		}
	}
	sort.Strings(bad)
	return strings.Join(bad, ",")
}

// checkIdentities asserts the counter identities every MMU's Stats
// satisfy: each access hits or misses L1, and each L1 miss resolves as
// exactly one of a 0D segment hit, an L2 hit or a walk.
func checkIdentities(st mmu.Stats) error {
	if st.Accesses != st.L1Hits+st.L1Misses {
		return fmt.Errorf("stats identity: accesses %d != L1 hits %d + misses %d",
			st.Accesses, st.L1Hits, st.L1Misses)
	}
	if st.L1Misses != st.ZeroDWalks+st.L2Hits+st.Walks {
		return fmt.Errorf("stats identity: L1 misses %d != 0D %d + L2 hits %d + walks %d",
			st.L1Misses, st.ZeroDWalks, st.L2Hits, st.Walks)
	}
	if st.EscapeTaken > st.EscapeProbes {
		return fmt.Errorf("stats identity: escapes taken %d > probes %d", st.EscapeTaken, st.EscapeProbes)
	}
	if st.GuestFaults+st.NestedFaults > st.Walks {
		return fmt.Errorf("stats identity: faults %d+%d > walks %d", st.GuestFaults, st.NestedFaults, st.Walks)
	}
	return nil
}
