package main

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/migration"
	"repro/internal/report"
)

// parsePrograms expands the -programs flag into one workload name per
// program: either an integer K (K co-scheduled copies of -workload) or
// an explicit comma-separated workload list.
func parsePrograms(spec, workload string) ([]string, error) {
	if k, err := strconv.Atoi(spec); err == nil {
		if k < 1 {
			return nil, fmt.Errorf("emsim: -programs needs at least 1 program, got %d", k)
		}
		names := make([]string, k)
		for i := range names {
			names[i] = workload
		}
		return names, nil
	}
	var names []string
	for _, n := range strings.Split(spec, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			return nil, fmt.Errorf("emsim: empty workload name in -programs %q", spec)
		}
		names = append(names, n)
	}
	return names, nil
}

// runMulti executes one multiprogrammed run: p's programs co-scheduled
// on a shared L2 complex (deterministic round robin), each compared
// against its solo 1-core baseline, rendered as a table or as JSON.
func runMulti(w io.Writer, p runParams, jsonOut bool) error {
	res, err := report.MultiRun(p.Spec, report.RunOptions{Workers: p.Workers})
	if err != nil {
		return err
	}
	if jsonOut {
		return report.WriteMultiRunJSON(w, res)
	}
	fmt.Fprintf(w, "%d programs on a shared %d-core L2 complex, %d instructions each\n",
		res.Programs, res.Cores, res.Instr)
	if res.Policy != "" || res.Topology != "" {
		pol, topo := res.Policy, res.Topology
		if pol == "" {
			pol = migration.PolicyMichaud
		}
		if topo == "" {
			topo = migration.TopologyUniform
		}
		fmt.Fprintf(w, "policy %s, topology %s\n", pol, topo)
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, report.FormatMultiRun(res))
	return nil
}
