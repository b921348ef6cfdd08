package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/report"
	engine "repro/internal/run"
)

func TestParsePrograms(t *testing.T) {
	for _, c := range []struct {
		spec, workload string
		want           []string
	}{
		{"3", "mst", []string{"mst", "mst", "mst"}},
		{"1", "em3d", []string{"em3d"}},
		{"mst,181.mcf", "", []string{"mst", "181.mcf"}},
		{" mst , em3d ", "", []string{"mst", "em3d"}},
	} {
		got, err := parsePrograms(c.spec, c.workload)
		if err != nil {
			t.Errorf("parsePrograms(%q, %q): %v", c.spec, c.workload, err)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("parsePrograms(%q, %q) = %v, want %v", c.spec, c.workload, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("parsePrograms(%q, %q) = %v, want %v", c.spec, c.workload, got, c.want)
				break
			}
		}
	}
	for _, c := range []struct{ spec, workload string }{
		{"0", "mst"},
		{"-2", "mst"},
		{"mst,,em3d", ""},
		{"", ""},
	} {
		if got, err := parsePrograms(c.spec, c.workload); err == nil {
			t.Errorf("parsePrograms(%q, %q) accepted: %v", c.spec, c.workload, got)
		}
	}
}

// TestRunMultiOutput drives runMulti end to end in-process: the table
// header names the scenario, and the JSON form parses into the
// canonical multiprogram shape with consistent totals.
func TestRunMultiOutput(t *testing.T) {
	p := runParams{Spec: engine.Spec{Programs: []string{"mst", "em3d"}, Instr: 50_000, Cores: 4, Policy: "numa", Topology: "cluster"}}

	var table bytes.Buffer
	if err := runMulti(&table, p, false); err != nil {
		t.Fatal(err)
	}
	out := table.String()
	for _, want := range []string{"2 programs", "policy numa", "topology cluster"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}

	var buf bytes.Buffer
	if err := runMulti(&buf, runParams{Spec: engine.Spec{Programs: []string{"mst", "mst"}, Instr: 50_000, Cores: 4}}, true); err != nil {
		t.Fatal(err)
	}
	var res report.MultiRunResultJSON
	if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Programs != 2 || len(res.PerProgram) != 2 {
		t.Fatalf("program count %d/%d, want 2", res.Programs, len(res.PerProgram))
	}
	var sum machine.Stats
	for _, pr := range res.PerProgram {
		sum = machine.AddStats(sum, pr.Stats)
	}
	if sum != res.Totals {
		t.Fatalf("per-program stats do not sum to totals:\n%+v\nvs\n%+v", sum, res.Totals)
	}

	p.Programs = []string{"mst", "nope"}
	if err := runMulti(&buf, p, false); err == nil {
		t.Fatal("unknown program workload accepted")
	}
}
