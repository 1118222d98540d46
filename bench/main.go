// Command bench is the repository's benchmark: five closed-loop workloads
// from the HTTP facade down to the storage nodes, measured end to end with
// no instrumentation and, in a separate traced pass, layer by layer from
// outside the program. See README.md.
//
//	bash bench/run.sh                                  every workload, both passes, result file
//	bash bench/run.sh -smoke                           the same at 1/100 of the op counts
//	bash bench/run.sh -runs 3 -o a.json                repeated, with medians and quartiles
//	bash bench/run.sh -compare a.json b.json           verdict per workload and metric
//	bash bench/run.sh --workload invoke-hot --seed 1 --seconds 10 --trace 0
//	                                                   one pass over one workload; the last line is its JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run one pass over this workload and print its JSON as the last line (default: every workload, both passes)")
		seed         = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds      = flag.Int("seconds", 10, "nominal length of a timed phase: its op count is the workload's fixed rate times this")
		traced       = flag.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics, 1 the per-layer metrics")
		smoke        = flag.Bool("smoke", false, "1/100 of the op counts on a small corpus; checks the benchmark, measures nothing")
		runs         = flag.Int("runs", 1, "repeat the whole benchmark this often and report medians and quartiles")
		workDir      = flag.String("workdir", filepath.Join("bench", "out"), "directory for the docstore, span dumps and the result file")
		out          = flag.String("o", "", "result file (default <workdir>/result.json)")
		doCompare    = flag.Bool("compare", false, "compare two result files given as arguments; exit 1 if any metric got worse")
	)
	flag.Parse()

	if *doCompare {
		if flag.NArg() != 2 {
			fatal(2, "usage: bench -compare a.json b.json")
		}
		a, err := readResultFile(flag.Arg(0))
		if err != nil {
			fatal(2, "%v", err)
		}
		b, err := readResultFile(flag.Arg(1))
		if err != nil {
			fatal(2, "%v", err)
		}
		if err := sameSettings(a.Env, b.Env); err != nil {
			fatal(2, "%s and %s are not comparable: %v", flag.Arg(0), flag.Arg(1), err)
		}
		if n := compare(os.Stdout, a, b); n > 0 {
			fatal(1, "%d metric(s) worse than their bound allows, or missing", n)
		}
		return
	}

	p := passConfig{sc: fullScale, seed: *seed, seconds: *seconds, callers: defaultCallers, workDir: *workDir, setups: 3}
	if *smoke {
		p.sc, p.setups = smokeScale, 1
	}
	if p.seconds < 1 || *runs < 1 {
		fatal(2, "-seconds and -runs must be at least 1")
	}
	if err := os.MkdirAll(p.workDir, 0o755); err != nil {
		fatal(2, "%v", err)
	}

	if *workloadName != "" {
		w, ok := workloadByName(*workloadName)
		if !ok {
			fatal(2, "unknown workload %q; have %s", *workloadName, strings.Join(workloadNames(), ", "))
		}
		p.w = w
		os.Exit(runOne(p, *smoke, *traced == 1))
	}

	path := *out
	if path == "" {
		path = filepath.Join(p.workDir, "result.json")
	}
	os.Exit(runAll(p, *smoke, *runs, path))
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// runOne is the driver's entry: one pass over one workload. The last line
// of standard output is one JSON object holding the pass's metrics: the
// end-to-end set (without failed_frac, which is the attempted and failed
// counts beside it) or the per-layer set.
func runOne(p passConfig, smoke, traced bool) int {
	if env, err := json.Marshal(describeEnvironment(p, smoke)); err == nil {
		fmt.Fprintf(os.Stderr, "env %s\n", env)
	}
	run, defs := runUntraced, endToEnd
	if traced {
		run, defs = runTraced, perLayer
	}
	pr, err := run(p)
	if err != nil {
		fatal(1, "%v", err)
	}
	printPass(os.Stderr, p.w.Name, defs, pr)
	fmt.Fprintf(os.Stderr, "%-14s %-30s %s\n", p.w.Name, "load.stream_hash", pr.StreamHash)
	if pr.Failed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d ops failed, first: %s\n", p.w.Name, pr.Failed, pr.Attempted, pr.FirstError)
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{pr.Failed == 0, pr.Attempted, pr.Failed, map[string]metric{}}
	for _, d := range defs {
		if d.Name != "failed_frac" {
			line.Metrics[d.Name] = pr.Metrics[d.Name]
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fatal(1, "%v", err)
	}
	fmt.Println(string(data))
	if pr.Failed > 0 {
		return 1
	}
	return 0
}

// runAll runs every workload, untraced then traced, runs times over, prints
// every metric and writes the result file. It returns 1 if any op failed.
func runAll(p passConfig, smoke bool, runs int, path string) int {
	f := resultFile{Env: describeEnvironment(p, smoke)}
	env, err := json.Marshal(f.Env)
	if err != nil {
		fatal(1, "%v", err)
	}
	fmt.Printf("env %s\n", env)
	failed := 0
	for i := 0; i < runs; i++ {
		run := map[string]workloadResult{}
		for _, w := range workloads {
			p.w = w
			var res workloadResult
			if res.EndToEnd, err = runUntraced(p); err != nil {
				fatal(1, "%v", err)
			}
			printPass(os.Stdout, w.Name, endToEnd, res.EndToEnd)
			fmt.Printf("%-14s %-30s %s\n", w.Name, "load.stream_hash", res.EndToEnd.StreamHash)
			if res.PerLayer, err = runTraced(p); err != nil {
				fatal(1, "%v", err)
			}
			printPass(os.Stdout, w.Name, perLayer, res.PerLayer)
			for _, pr := range []passResult{res.EndToEnd, res.PerLayer} {
				if pr.Failed > 0 {
					failed += pr.Failed
					fmt.Printf("%-14s FAILED %d of %d ops, first: %s\n", w.Name, pr.Failed, pr.Attempted, pr.FirstError)
				}
			}
			run[w.Name] = res
		}
		f.Runs = append(f.Runs, run)
	}
	f.summarize()
	if err := f.write(path); err != nil {
		fatal(1, "%v", err)
	}
	fmt.Printf("result written to %s\n", path)
	if failed > 0 {
		fmt.Printf("%d ops failed\n", failed)
		return 1
	}
	return 0
}
