// Command tables regenerates the paper's Table 1 (benchmark inventory:
// instructions, 16 KB IL1/DL1 misses) and Table 2 (the 4-core execution
// migration experiment) for all 18 benchmark analogues. Independent
// workload runs fan out across a worker pool; the output is
// byte-identical for every -j value.
//
// Usage:
//
//	tables -table1                # Table 1 only
//	tables -table2                # Table 2 only
//	tables -timeline -interval 1000000  # per-interval metric deltas over time
//	tables -instr 50000000        # instruction budget per workload
//	tables -only 179.art,181.mcf  # restrict to some workloads
//	tables -j 8                   # worker pool size (0 = all cores, 1 = serial)
//	tables -tournament -policies michaud,numa,never -topology cluster
//	tables -sample -sample-interval 1000000 -sample-clusters 8  # ESTIMATED sampled sweep

package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/ioutilx"
	"repro/internal/migration"
	"repro/internal/report"
	"repro/internal/run"
	"repro/internal/workloads/suite"
)

func main() {
	var (
		t1       = flag.Bool("table1", false, "print Table 1 only")
		t2       = flag.Bool("table2", false, "print Table 2 only")
		sweep    = flag.Bool("sweep", false, "print the working-set-size sweep (the Table 2 trade on a synthetic circular workload) and exit")
		cores    = flag.Int("cores", run.DefaultCores, "cores for the -sweep, -tournament and -sample migration machines")
		laps     = flag.Uint64("laps", report.DefaultSweepLaps, "laps per -sweep point")
		instr    = flag.Uint64("instr", run.DefaultInstr, "instruction budget per workload (paper: 1e9)")
		only     = flag.String("only", "", "comma-separated subset of workloads")
		jobs     = flag.Int("j", 0, "parallel worker count: 0 = all cores, 1 = serial legacy path")
		timeline = flag.Bool("timeline", false, "print the per-interval timeline table (Table 2's trade resolved over time) and exit")
		interval = flag.Uint64("interval", 1_000_000, "events between -timeline samples")
		tourney  = flag.Bool("tournament", false, "print the cross-policy tournament league table and exit")
		policies = flag.String("policies", "michaud,numa,never", "comma-separated policy list for -tournament")
		topology = flag.String("topology", "", "core-distance topology for -tournament (default uniform)")
		pmig     = flag.Float64("pmig", 0, "reference migration penalty for the -tournament speedup column (0 = default)")
		outPath  = flag.String("o", "", "write the tables to this file instead of stdout")

		sample         = flag.Bool("sample", false, "print the interval-sampling sweep (ESTIMATED Table 2 headline columns with error bars) and exit")
		sampleInterval = flag.Uint64("sample-interval", run.DefaultSampleInterval, "instructions per sampling interval")
		sampleClusters = flag.Int("sample-clusters", run.DefaultSampleClusters, "interval clusters (representatives) per workload")
		sampleSeed     = flag.Uint64("sample-seed", run.DefaultSampleSeed, "clustering seed")
		sampleWarmup   = flag.Int("sample-warmup", run.DefaultSampleWarmup, "unmeasured warmup intervals before each sampled interval")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if !*sample {
		// The sampling sub-flags only shape the sampled sweep: set
		// without -sample they are an error, not a silent no-op.
		flag.Visit(func(f *flag.Flag) {
			if strings.HasPrefix(f.Name, "sample-") {
				fail(fmt.Errorf("tables: -%s needs -sample", f.Name))
			}
		})
	}
	opt := func(stage string) report.RunOptions {
		return report.RunOptions{
			Workers:  *jobs,
			Progress: func(label string) { fmt.Fprintf(os.Stderr, "  %s %s done\n", stage, label) },
		}
	}

	if !*t1 && !*t2 && !*timeline && !*sweep && !*tourney && !*sample {
		*t1, *t2 = true, true
	}

	reg := suite.Registry()
	names := reg.Names()
	if *only != "" {
		names = nil
		for _, n := range strings.Split(*only, ",") {
			names = append(names, strings.TrimSpace(n))
		}
	}

	// emit writes the requested tables to out; the output sink (stdout
	// or the -o file) is the caller's concern, including its Close.
	emit := func(out io.Writer) error {
		if *sweep {
			fmt.Fprintf(out, "circular working-set sweep, %d-core migration machine, %d laps per point\n\n", *cores, *laps)
			points, err := report.SweepWorkingSetOpt(report.DefaultSweepSizes(), *laps, *cores, opt("sweep"))
			if err != nil {
				return err
			}
			fmt.Fprintln(out, report.FormatSweep(points))
			return nil
		}

		if *tourney {
			var pols []string
			for _, p := range strings.Split(*policies, ",") {
				pols = append(pols, strings.TrimSpace(p))
			}
			topo := *topology
			if topo == "" {
				topo = migration.TopologyUniform
			}
			fmt.Fprintf(out, "policy tournament: %s on the %s topology, %d-core machines,\n%dM instructions per run\n\n",
				strings.Join(pols, " vs "), topo, *cores, *instr/1_000_000)
			rows, err := report.TournamentBatch(reg, names, report.TournamentConfig{
				Policies: pols,
				Topology: *topology,
				Cores:    *cores,
				Budget:   *instr,
				Pmig:     *pmig,
			}, opt("tournament"))
			if err != nil {
				return err
			}
			fmt.Fprintln(out, report.FormatTournament(rows, *pmig))
			return nil
		}

		if *sample {
			fmt.Fprintf(out, "ESTIMATED sampled sweep (interval sampling): %dM instructions per workload,\n", *instr/1_000_000)
			fmt.Fprintf(out, "intervals of %d instr, %d clusters, seed %d, warmup %d; rates are per\n",
				*sampleInterval, *sampleClusters, *sampleSeed, *sampleWarmup)
			fmt.Fprintf(out, "retired instruction with ±1 standard error; nothing below is a measured total.\n\n")
			results, err := report.SampleBatch(names, run.Spec{
				Instr:          *instr,
				Cores:          *cores,
				Sample:         true,
				SampleInterval: *sampleInterval,
				SampleClusters: *sampleClusters,
				SampleSeed:     *sampleSeed,
				SampleWarmup:   *sampleWarmup,
				Registry:       reg,
			}, opt("sample"))
			if err != nil {
				return err
			}
			fmt.Fprintln(out, report.FormatSampleBatch(results))
			return nil
		}

		if *timeline {
			fmt.Fprintf(out, "per-interval timeline, %d events per interval, %dM instructions per workload\n\n",
				*interval, *instr/1_000_000)
			batch, err := report.TimelineBatch(reg, names, *instr, *interval, opt("timeline"))
			if err != nil {
				return err
			}
			fmt.Fprintln(out, report.FormatTimeline(batch))
			return nil
		}

		if *t1 {
			fmt.Fprintf(out, "Table 1: benchmarks, %dM instructions each, 16KB fully-assoc LRU L1s, 64B lines\n\n", *instr/1_000_000)
			rows, err := report.Table1Batch(reg, names, *instr, opt("table1"))
			if err != nil {
				return err
			}
			fmt.Fprintln(out, report.FormatTable1(rows))
		}
		if *t2 {
			fmt.Fprintf(out, "Table 2: 4-core, 512KB 4-way skewed L2 per core, 8k-entry affinity cache,\n")
			fmt.Fprintf(out, "25%% sampling, 18-bit filters, L2 filtering. %dM instructions per run.\n", *instr/1_000_000)
			fmt.Fprintf(out, "All columns are instructions per event (higher is better); ratio < 1 means\n")
			fmt.Fprintf(out, "execution migration removed L2 misses.\n\n")
			rows, err := report.Table2Batch(reg, names, *instr, opt("table2"))
			if err != nil {
				return err
			}
			fmt.Fprintln(out, report.FormatTable2(rows))
		}
		return nil
	}

	if *outPath == "" {
		if err := emit(os.Stdout); err != nil {
			fail(err)
		}
		return
	}
	err := func() (err error) {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer ioutilx.CloseKeeping(&err, f)
		return emit(f)
	}()
	if err != nil {
		fail(err)
	}
}
