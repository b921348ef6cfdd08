package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// golden holds the SHA-256 digests every op's output is checked
// against. The simulator is deterministic, so any change to these bytes
// is a change to the model or to an output format; a PR that makes one
// on purpose regenerates the file with `bench.sh regen`.
type golden struct {
	FullInstr uint64            `json:"full_instr"`
	Full      map[string]string `json:"full"`    // "<program>/json", "<program>/timeline"
	Truth     map[string]string `json:"truth"`   // the mcf trace, and the full-fidelity JSON of each sampled input
	Sampled   map[string]string `json:"sampled"` // sampledOp.id() -> JSON
	Service   map[string]string `json:"service"` // reqSpec.id() -> reply body
}

const goldenFile = "perfbench/golden.json"

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func loadGolden(root string) (*golden, error) {
	b, err := os.ReadFile(filepath.Join(root, goldenFile))
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenFile, err)
	}
	if g.FullInstr != fullInstr {
		return nil, fmt.Errorf("%s was made at -instr %d, the benchmark runs %d: run regen", goldenFile, g.FullInstr, fullInstr)
	}
	return &g, nil
}

func (g *golden) save(root string) error {
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, goldenFile), append(b, '\n'), 0o644)
}

// check compares b with the digest stored under key. An empty table
// (regen in progress) records instead of checking.
func check(table map[string]string, key string, b []byte, recording bool) error {
	d := digest(b)
	if recording {
		table[key] = d
		return nil
	}
	want, ok := table[key]
	switch {
	case !ok:
		return fmt.Errorf("%s: no golden digest", key)
	case want != d:
		return fmt.Errorf("%s: output digest %s, golden %s", key, d[:12], want[:12])
	}
	return nil
}
