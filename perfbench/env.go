package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// provenance stamps a result record with where and from what it was
// measured. Absolute numbers only compare between records whose
// environment matches.
type provenance struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	// SourceSHA256 hashes every Go source and go.mod of the program, so
	// a record taken outside a git checkout still names its code.
	SourceSHA256 string `json:"source_sha256"`
	Seed         int64  `json:"seed"`
	// GoLOC is the program's non-test Go line count (lint testdata and
	// the benchmark excluded): tracked next to speed, not scored.
	GoLOC int `json:"go_loc_unscored"`
	// SharedProcess records that the load generator and the program
	// run in one process, so heap and CPU figures include the generator.
	SharedProcess bool `json:"generator_shares_process"`
}

func collectProvenance(root string, seed int64) provenance {
	loc, sum := sourceStats(root)
	return provenance{
		CPU:           cpuModel(),
		NProc:         runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		Commit:        gitCommit(root),
		SourceSHA256:  sum,
		Seed:          seed,
		GoLOC:         loc,
		SharedProcess: true,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD from the checkout's .git directory without
// running git; "unknown" outside a git checkout.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// sourceStats counts the program's non-test Go lines and hashes its
// sources. The benchmark's own directory, build output, VCS metadata and
// analyzer testdata are outside the program.
func sourceStats(root string) (loc int, sum string) {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			switch {
			case rel == "perfbench", rel == ".git", rel == ".bench_build", d.Name() == "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(rel, ".go") || d.Name() == "go.mod" {
			files = append(files, rel)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, rel := range files {
		b, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			continue
		}
		h.Write([]byte(rel))
		h.Write(b)
		if strings.HasSuffix(rel, ".go") && !strings.HasSuffix(rel, "_test.go") {
			loc += bytes.Count(b, []byte("\n"))
		}
	}
	return loc, hex.EncodeToString(h.Sum(nil))
}
