package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// golden.json holds the result digests of the full-size workloads at
// seed 1. Any change to what the engines compute changes them; the
// benchmark then fails its output check until the file is updated on
// purpose.
//
//go:embed golden.json
var goldenJSON []byte

// goldenDigest returns the committed digest for workload at o's seed
// and size, or "" when none is committed.
func goldenDigest(workload string, o options) string {
	if o.quick {
		return ""
	}
	var g map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic("golden.json: " + err.Error()) // embedded at build time
	}
	return g[workload][fmt.Sprint(o.seed)]
}
