// Command storebench is the repository's end-to-end benchmark. It runs
// one named workload from a seed through the public store API on files
// under a scratch directory — stream.NewWriter into an fsynced file,
// OpenReaderAt/ReadPlanes over the whole field and over chunk windows,
// OpenAppend sessions growing an archive, and Scrub — checks every
// output, and prints its metrics as one JSON object on the last line of
// standard output.
//
// A single caller drives a closed loop: each operation waits for the one
// before it. Each run discards its warm-up passes and reports medians
// over many interleaved warm passes (see runEndToEnd). setup_s is the median over several
// fresh processes of the program's cold start: writer and reader
// construction plus the first pass. With --trace 1 the run instead
// replays every shard through each layer's own public functions and
// prints per-layer metrics (see trace.go).
//
//	bash storebench/run.sh --workload hicr-jhtdb --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	warmPasses   = 2 // discarded passes before measuring
	setupProbes  = 5 // cold-start processes per run
	minWindows   = 200
	minPasses    = 10
	maxPassSteal = 0.02 // steal share up to which a pass counts as clean
	extraSeconds = 10   // longest the run extends to collect clean passes
	fieldFile    = "field.f32"
	scratchDir   = ".bench_build" // under the repository root, where run.sh builds
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	margin   float64 // layer-accounting margin of the traced run
	role     string  // "" (a measured run), "gen" or "probe"
	dir      string  // run directory (child roles)
}

func main() {
	var c config
	flag.StringVar(&c.workload, "workload", "", "workload name: hicr-jhtdb, auto-mixed or szx-archive")
	flag.Int64Var(&c.seed, "seed", 1, "input seed")
	flag.IntVar(&c.seconds, "seconds", 20, "seconds of measured passes")
	flag.IntVar(&c.trace, "trace", 0, "1 runs the per-layer replay trace instead of the end-to-end measurement")
	flag.Float64Var(&c.margin, "account-margin", 0.25, "share of the one-worker end-to-end time the replayed layers may leave unaccounted")
	flag.StringVar(&c.role, "role", "", "internal: gen or probe child")
	flag.StringVar(&c.dir, "dir", "", "internal: run directory of a child")
	flag.Parse()
	if err := run(c); err != nil {
		fmt.Fprintln(os.Stderr, "storebench:", err)
		os.Exit(1)
	}
}

func run(c config) error {
	wl, err := lookupWorkload(c.workload)
	if err != nil {
		return err
	}
	if c.seconds < 1 || (c.trace != 0 && c.trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	workers := runtime.NumCPU()
	runtime.GOMAXPROCS(workers)
	switch c.role {
	case "gen":
		data, err := wl.synthesize(c.seed)
		if err != nil {
			return err
		}
		return saveField(filepath.Join(c.dir, fieldFile), data)
	case "probe":
		b, err := load(c, wl, workers)
		if err != nil {
			return err
		}
		t0 := time.Now()
		b.pass(nil)
		secs := time.Since(t0).Seconds()
		if b.g.failed > 0 {
			return b.g.firstErr
		}
		fmt.Println(secs)
		return nil
	case "":
	default:
		return fmt.Errorf("unknown role %q", c.role)
	}

	steal := startSteal()
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(scratchDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	c.dir = dir
	// Input synthesis runs in a child so that neither its time nor its
	// memory reaches any metric.
	if _, err := child(c, "gen"); err != nil {
		return err
	}
	var res *result
	if c.trace == 1 {
		res, err = runTrace(c, wl, workers)
	} else {
		res, err = runEndToEnd(c, wl, workers)
	}
	if err != nil {
		return err
	}
	host, _ := json.Marshal(steal.record())
	fmt.Printf("host %s\n", host)
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// child runs this program in another role on the same run directory and
// returns its standard output.
func child(c config, role string) ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--role", role, "--dir", c.dir, "--workload", c.workload,
		"--seed", strconv.FormatInt(c.seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s child: %w", role, err)
	}
	return out, nil
}

// setupSeconds starts the program cold in setupProbes fresh processes
// and returns the median of their set-up times.
func setupSeconds(c config) (float64, error) {
	var secs []float64
	for i := 0; i < setupProbes; i++ {
		out, err := child(c, "probe")
		if err != nil {
			return 0, err
		}
		s, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		if err != nil {
			return 0, fmt.Errorf("probe printed %q", out)
		}
		secs = append(secs, s)
	}
	return median(secs), nil
}

// load reads the synthesized field and builds the bench around it.
func load(c config, wl *workload, workers int) (*bench, error) {
	data, err := loadField(filepath.Join(c.dir, fieldFile), wl.dims[0]*wl.planeElems())
	if err != nil {
		return nil, err
	}
	return newBench(wl, data, c.seed, workers, c.dir), nil
}

// runEndToEnd measures the end-to-end metrics with tracing off.
//
// On a virtual machine the hypervisor may steal CPU in bursts of a
// fraction of a second. A pass it stole from measures the neighbours, not
// this program, so each pass's steal share is read from /proc/stat
// and the metrics are medians over the clean passes: those with a steal
// share of at most maxPassSteal. The run measures for --seconds, and for
// up to extraSeconds more while the clean passes are too few; if they
// still are, it takes the least-stolen passes it needs. The host record
// reports the run's overall steal share.
func runEndToEnd(c config, wl *workload, workers int) (*result, error) {
	setup, err := setupSeconds(c)
	if err != nil {
		return nil, err
	}
	b, err := load(c, wl, workers)
	if err != nil {
		return nil, err
	}
	for i := 0; i < warmPasses; i++ {
		b.pass(nil)
	}
	type sample struct {
		steal float64
		r     passResult
	}
	var passes []sample
	// enough reports whether the first n passes make a full sample.
	enough := func(n int) bool {
		w := 0
		for _, p := range passes[:n] {
			w += len(p.r.windows)
		}
		return n >= minPasses && w >= minWindows
	}
	clean := 0
	start := time.Now()
	for {
		m := startSteal()
		r := b.pass(nil)
		if b.g.failed > 0 {
			break
		}
		passes = append(passes, sample{m.share(), r})
		sort.SliceStable(passes, func(i, j int) bool { return passes[i].steal < passes[j].steal })
		for clean = 0; clean < len(passes) && passes[clean].steal <= maxPassSteal; clean++ {
		}
		el := time.Since(start)
		if el >= time.Duration(c.seconds)*time.Second && (enough(clean) || el >= time.Duration(c.seconds+extraSeconds)*time.Second && enough(len(passes))) {
			break
		}
	}
	if b.g.failed > 0 {
		fmt.Fprintln(os.Stderr, "storebench: failed:", b.g.firstErr)
	}
	n := clean
	for n < len(passes) && !enough(n) {
		n++
	}
	kept := passes[:n]
	worst := 0.0
	if n > 0 {
		worst = kept[n-1].steal
	}
	var write, read, app, scrub, win, rss []float64
	for _, p := range kept {
		rss = append(rss, p.r.peakRSS)
		write = append(write, mbps(4*int64(len(b.data)), p.r.write))
		read = append(read, mbps(p.r.readBytes, p.r.read))
		app = append(app, mbps(p.r.appendBytes, p.r.append))
		scrub = append(scrub, mbps(p.r.scrubBytes, p.r.scrub))
		for _, d := range p.r.windows {
			win = append(win, d.Seconds()*1e3)
		}
	}
	// Within-run quartiles go to standard error, so a noisy run can be
	// told from a shifted one.
	fmt.Fprintf(os.Stderr, "storebench: kept %d of %d passes (steal share up to %.3f), %d windows; quartiles",
		len(kept), len(passes), worst, len(win))
	for _, s := range []struct {
		name string
		xs   []float64
	}{{"write_MBps", write}, {"read_MBps", read}, {"append_MBps", app}, {"scrub_MBps", scrub}, {"window_ms", win}} {
		fmt.Fprintf(os.Stderr, " %s=[%.4g %.4g %.4g]", s.name, quantile(s.xs, 0.25), median(s.xs), quantile(s.xs, 0.75))
	}
	fmt.Fprintln(os.Stderr)
	ratio, psnr := b.quality()
	return &result{
		Correct: b.g.failed == 0, Attempted: b.g.attempted, Failed: b.g.failed,
		Metrics: map[string]metric{
			"write_MBps":    {median(write), "MB/s"},
			"read_MBps":     {median(read), "MB/s"},
			"window_p50_ms": {quantile(win, 0.50), "ms"},
			"window_p95_ms": {quantile(win, 0.95), "ms"},
			"append_MBps":   {median(app), "MB/s"},
			"scrub_MBps":    {median(scrub), "MB/s"},
			"ratio":         {ratio, "x"},
			"psnr_db":       {psnr, "dB"},
			"setup_s":       {setup, "s"},
			"peak_rss_MB":   {median(rss), "MB"},
		},
	}, nil
}
