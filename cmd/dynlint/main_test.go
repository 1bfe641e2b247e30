package main

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// maxSuppressions is the ratchet on //dynlint:ignore directives in the
// module's non-test Go files: the count may only go down. Lower it when a
// suppression is removed.
const maxSuppressions = 4

// TestRepoIsCleanUnderDynlint is the self-check: the whole module must
// have zero unsuppressed findings. A new finding means either a real
// concurrency/durability bug (fix it) or a deliberate exception (add a
// //dynlint:ignore with a written reason). CI runs the binary too; this
// test makes `go test ./...` sufficient locally. It also holds the
// suppressions in non-test, non-testdata Go files to maxSuppressions, so
// an exception cannot be added silently.
func TestRepoIsCleanUnderDynlint(t *testing.T) {
	diags, err := Run("../..", []string{"./..."})
	if err != nil {
		t.Fatalf("dynlint failed to run: %v", err)
	}
	if len(diags) > 0 {
		t.Errorf("dynlint reported %d finding(s) on the repo:\n%s", len(diags), strings.Join(diags, "\n"))
	}
	sites, err := suppressions("../..")
	if err != nil {
		t.Fatalf("counting suppressions: %v", err)
	}
	if len(sites) > maxSuppressions {
		t.Errorf("%d //dynlint:ignore directives in non-test Go files, at most %d allowed:\n%s",
			len(sites), maxSuppressions, strings.Join(sites, "\n"))
	}
}

// suppressions lists the //dynlint:ignore directives (a line comment that
// begins with the directive) in the Go files under root, skipping test
// files and testdata directories, as "file:line" strings.
func suppressions(root string) ([]string, error) {
	var sites []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || (path != root && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			if strings.HasPrefix(strings.TrimSpace(sc.Text()), "//dynlint:ignore") {
				rel, _ := filepath.Rel(root, path)
				sites = append(sites, rel+":"+strconv.Itoa(line))
			}
		}
		return sc.Err()
	})
	return sites, err
}
