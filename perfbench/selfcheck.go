package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// selfcheckOps bounds each determinism run by op count, not time, so the
// two runs of a workload apply the identical stream.
var selfcheckOps = map[string]int{"paper-5d": 20_000, "serve-window": 16_000}

// determinismCheck runs each single-writer workload twice, each time in a
// fresh traced process with the same seed, and confirms that the op stream
// hash and the counts a fixed stream determines come out identical.
// hotspot-zipf is left out: its two writers interleave differently on
// every run.
func determinismCheck(seed int64) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	ok := true
	for _, name := range []string{"paper-5d", "serve-window"} {
		var runs [2]*report
		for i := range runs {
			cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(seed),
				"--seconds", "60", "--trace", "1", "--ops", fmt.Sprint(selfcheckOps[name]))
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: selfcheck %s run %d: %v\n", name, i+1, err)
				return 1
			}
			rep := &report{Workload: name, Seed: seed, Trace: true}
			data, err := os.ReadFile(resultPath(rep, ".json"))
			if err == nil {
				err = json.Unmarshal(data, rep)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: selfcheck %s run %d: %v\n", name, i+1, err)
				return 1
			}
			runs[i] = rep
		}
		diffs := compareDeterministic(runs[0], runs[1])
		if len(diffs) == 0 {
			fmt.Printf("selfcheck %s seed %d: identical (hash %s…)\n", name, seed, runs[0].StreamHash[:16])
			continue
		}
		ok = false
		fmt.Printf("selfcheck %s seed %d: DIFFERS: %s\n", name, seed, strings.Join(diffs, "; "))
	}
	if !ok {
		return 1
	}
	return 0
}

// compareDeterministic lists the seed-determined quantities that differ.
func compareDeterministic(a, b *report) []string {
	var diffs []string
	if a.StreamHash != b.StreamHash {
		diffs = append(diffs, "op stream hash")
	}
	for name, m := range a.PerLayer {
		if !seedDetermined(name) {
			continue
		}
		n := b.PerLayer[name]
		if (m == nil) != (n == nil) || (m != nil && m.Value != n.Value) {
			diffs = append(diffs, fmt.Sprintf("%s %v vs %v", name, valueOf(m), valueOf(n)))
		}
	}
	return diffs
}

// seedDetermined names the counts a fixed op stream must reproduce.
func seedDetermined(name string) bool {
	switch name {
	case "core.cores", "core.core_cells", "core.graph_edges", "core.components",
		"core.became_core", "core.became_noise", "core.merged", "core.split",
		"wal.records", "persist.checkpoints", "events.delivered":
		return true
	}
	return false
}

func valueOf(m *metric) any {
	if m == nil {
		return nil
	}
	return m.Value
}
