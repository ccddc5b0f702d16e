// Command perfbench is the repository's benchmark: one seeded load
// generator that drives the real ReFlex path (an in-process server.New on
// one server core, over loopback TCP) and the discrete-event simulator.
//
//	perfbench --workload read_peak --seed 1 --seconds 10 --trace 0
//
// Workloads: read_peak, qos_tenants, vol_hot (real path) and sim_paper
// (simulator). With --trace 0 the run reports the end-to-end metrics; with
// --trace 1 it runs the workload once untraced and once traced and
// reports the per-layer metrics. The last line of standard output is the
// result object; the line before it records host, build and seed facts.
// README.md in this directory says what each workload and metric is for.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output format: the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// params are one run's command-line settings.
type params struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

// report collects a run's outcome; info carries everything that is not a
// metric (sample counts, failure breakdown, host facts).
type report struct {
	res  result
	info map[string]any
}

func newReport() *report {
	return &report{
		res:  result{Correct: true, Metrics: map[string]metric{}},
		info: map[string]any{},
	}
}

func main() {
	var p params
	var traceFlag int
	flag.StringVar(&p.workload, "workload", "", "workload: read_peak, qos_tenants, vol_hot or sim_paper")
	flag.Uint64Var(&p.seed, "seed", 1, "workload seed")
	flag.Float64Var(&p.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	writeDigests := flag.Bool("write-digests", false, "regenerate sim_paper's exhibits and print their digests, then exit")
	flag.Parse()
	p.trace = traceFlag == 1

	if *writeDigests {
		if err := printDigests(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if p.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	rep, err := run(p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for k, v := range facts(p) {
		rep.info[k] = v
	}
	if err := emit(os.Stdout, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// watchdogPeriod bounds a run: a lost response must not hang the
// benchmark past the time its caller allows.
const watchdogPeriod = 170 * time.Second

func run(p params) (*report, error) {
	watchdog := time.AfterFunc(watchdogPeriod, func() {
		panic("perfbench: run exceeded the watchdog period")
	})
	defer watchdog.Stop()
	switch p.workload {
	case "read_peak", "qos_tenants", "vol_hot":
		return runReal(p)
	case "sim_paper":
		return runSim(p)
	default:
		return nil, fmt.Errorf("unknown workload %q", p.workload)
	}
}

// emit prints the info line and then the result line.
func emit(w *os.File, rep *report) error {
	info, err := json.Marshal(rep.info)
	if err != nil {
		return err
	}
	res, err := json.Marshal(rep.res)
	if err != nil {
		return err
	}
	var b bytes.Buffer
	b.WriteString("info ")
	b.Write(info)
	b.WriteByte('\n')
	b.Write(res)
	b.WriteByte('\n')
	_, err = w.Write(b.Bytes())
	return err
}

// facts records the host, build and seed a result was measured with.
func facts(p params) map[string]any {
	return map[string]any{
		"workload":    p.workload,
		"seed":        p.seed,
		"seconds":     p.seconds,
		"trace":       p.trace,
		"num_cpu":     runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go_version":  runtime.Version(),
		"goos_arch":   runtime.GOOS + "/" + runtime.GOARCH,
		"commit":      commit(),
		"tree_sha256": treeDigest(),
	}
}

// treeDigest hashes the path and contents of every file under the working
// directory except build outputs and .git: it names the code measured when
// the checkout is not a git repository and commit reads "unknown".
func treeDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == ".git" || path == ".bench_build") {
			return filepath.SkipDir
		}
		if !d.Type().IsRegular() {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// commit reads the checked-out commit from .git in the working directory
// without running git; "unknown" when the tree is not a git checkout.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	return resolveRef(".git", strings.TrimSpace(string(head)))
}

func resolveRef(gitDir, head string) string {
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		return head // detached HEAD holds the hash itself
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
				return hash
			}
		}
	}
	return "unknown"
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
