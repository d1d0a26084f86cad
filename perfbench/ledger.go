package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// The exact-work ledger. Simulated counts and result digests are
// deterministic functions of the program and the seed, so they must
// repeat exactly: across the passes of one run, across runs of the same
// build and seed, and across workloads that simulate the same cell
// (gauss-serial's cells are paper-suite's gauss cells).

// ledgerFile is the record kept across runs, one per build and seed.
type ledgerFile struct {
	Counts  map[string]map[string]int64 `json:"counts"`  // workload -> count name -> value
	Digests map[string]string           `json:"digests"` // cell key or output name -> digest
}

// diffExact compares two ledgers entry by entry, over the names both
// hold. It returns the differing count names and digest keys.
func diffExact(wantCounts, gotCounts map[string]int64, wantDigests, gotDigests map[string]string) (counts, digests []string) {
	for name, v := range gotCounts {
		if w, ok := wantCounts[name]; ok && w != v {
			counts = append(counts, fmt.Sprintf("%s: %d, earlier %d", name, v, w))
		}
	}
	for key, d := range gotDigests {
		if w, ok := wantDigests[key]; ok && w != d {
			digests = append(digests, key)
		}
	}
	sort.Strings(counts)
	sort.Strings(digests)
	return counts, digests
}

// ledgerPath names the cross-run ledger of this build and seed. The
// build is identified by a hash of the running executable, so a changed
// program starts a fresh ledger instead of being held to the old one's
// counts.
func ledgerPath(out string, seed int64) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	build := hex.EncodeToString(h.Sum(nil))[:16]
	return filepath.Join(out, "ledger", fmt.Sprintf("%s-seed%d.json", build, seed)), nil
}

func readLedger(path string) (*ledgerFile, error) {
	l := &ledgerFile{Counts: map[string]map[string]int64{}, Digests: map[string]string{}}
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return l, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, l); err != nil {
		return nil, fmt.Errorf("ledger %s: %w", path, err)
	}
	if l.Counts == nil {
		l.Counts = map[string]map[string]int64{}
	}
	if l.Digests == nil {
		l.Digests = map[string]string{}
	}
	return l, nil
}

// merge adds the entries l does not hold yet; recorded values are never
// overwritten, so a later disagreeing run cannot rewrite the reference.
func (l *ledgerFile) merge(workload string, counts map[string]int64, digests map[string]string) {
	c := l.Counts[workload]
	if c == nil {
		c = map[string]int64{}
		l.Counts[workload] = c
	}
	for k, v := range counts {
		if _, ok := c[k]; !ok {
			c[k] = v
		}
	}
	for k, v := range digests {
		if _, ok := l.Digests[k]; !ok {
			l.Digests[k] = v
		}
	}
}

// write stores the ledger atomically (temp file, then rename).
func (l *ledgerFile) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(l, "", " ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
