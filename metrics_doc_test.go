package aq2pnn

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// metricName matches a metric name literal: every counter, gauge and
// histogram the program registers is named "aq2pnn_…" in lower case.
var metricName = regexp.MustCompile(`"(aq2pnn_[a-z0-9_]+)"`)

// TestMetricsDocumented fails when the program emits a metric that
// docs/observability.md does not list by its full name.
func TestMetricsDocumented(t *testing.T) {
	doc, err := os.ReadFile("docs/observability.md")
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]string{}
	for _, root := range []string{".", "cmd", "internal"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if root == "." && path != "." {
					return fs.SkipDir // the root package only; cmd and internal walk below
				}
				if d.Name() == "testdata" {
					return fs.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range metricName.FindAllSubmatch(src, -1) {
				found[string(m[1])] = path
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(found) < 30 {
		t.Fatalf("found only %d metric names; is the source walk broken?", len(found))
	}
	for name, path := range found {
		if !strings.Contains(string(doc), "`"+name+"`") {
			t.Errorf("%s (emitted in %s) is missing from docs/observability.md", name, path)
		}
	}
}
