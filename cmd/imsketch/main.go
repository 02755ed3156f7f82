// Command imsketch builds an RR-sketch file from a network — the expensive,
// offline half of the build-once / serve-many pipeline. The resulting sketch
// is a self-contained influence oracle that imserve (or any process using
// imdist.LoadSketchFile) can load and query without rebuilding.
//
// Builds run on the incremental sketch builder: fixed-size by default (-rr),
// or adaptive with -target-eps, which keeps generating RR sets until the
// sketch's relative-error estimate reaches the target (capped by -rr). Long
// builds can checkpoint batch by batch to an append-only file (-checkpoint)
// and continue after a crash or restart (-resume); the finished sketch is
// byte-identical to an uninterrupted build either way.
//
// Builds larger than RAM run with -spill: every batch streams to the
// checkpoint file as it is generated and only a -mem-budget working set of
// decoded RR sets stays in memory, so peak RSS is bounded by the budget plus
// one in-flight batch rather than the full sketch. Spill output is
// byte-identical to the in-memory build of the same seed.
//
// Usage:
//
//	imsketch -dataset Karate -prob uc0.1 -rr 200000 -seed 7 -out karate.sketch
//	imsketch -graph edges.txt -prob iwc -model LT -rr 1000000 -workers -1 -out g.sketch
//	imsketch -dataset Karate -target-eps 0.05 -rr 5000000 -progress -out karate.sketch
//	imsketch -graph big.txt -rr 100000000 -checkpoint big.ckpt -out big.sketch
//	imsketch -graph big.txt -rr 100000000 -checkpoint big.ckpt -resume -out big.sketch
//	imsketch -graph big.txt -rr 100000000 -spill -mem-budget 256MiB -out big.sketch
//	imsketch -info karate.sketch
//	imsketch -split 4 big.sketch
//
// -split N partitions an existing sketch into N shard files
// (<sketch>.shard<i>-of-<N>, or -out as the prefix) along the batch engine's
// 64Ki-set block boundaries. Each shard is a complete sketch over a
// contiguous slice of the RR-set pool and records its shard lineage, so a
// fleet of imserve processes — one per shard, fronted by
// imserve -coordinator — serves the original sketch's answers byte for byte.
//
// The pipeline end to end:
//
//	imgraph -generate ba -n 10000 -m 3 -out ba.txt
//	imsketch -graph ba.txt -prob iwc -rr 1000000 -workers -1 -out ba.sketch
//	imserve -sketch ba.sketch -addr :8080
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"imdist"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "imsketch:", err)
		os.Exit(1)
	}
}

// buildReport is the JSON document -report writes: the per-build data point
// of the build-pipeline perf trajectory (sets generated, wall time, achieved
// bound).
type buildReport struct {
	Dataset    string  `json:"dataset,omitempty"`
	Graph      string  `json:"graph,omitempty"`
	Prob       string  `json:"prob"`
	Model      string  `json:"model"`
	Vertices   int     `json:"vertices"`
	Seed       uint64  `json:"seed"`
	Workers    int     `json:"workers"`
	TargetEps  float64 `json:"target_eps,omitempty"`
	Delta      float64 `json:"delta,omitempty"`
	K          int     `json:"k,omitempty"`
	MaxSets    int     `json:"max_sets"`
	Sets       int     `json:"sets"`
	Converged  bool    `json:"converged"`
	Bound      float64 `json:"achieved_bound,omitempty"`
	Resumed    int     `json:"resumed_from_sets,omitempty"`
	WallMillis int64   `json:"wall_ms"`
	Bytes      int64   `json:"sketch_bytes"`
	// Spill builds additionally record the disk/memory split: the spill
	// file's final size, the configured working-set budget, and the process
	// peak RSS (0 where the platform cannot report it).
	Spill          bool  `json:"spill,omitempty"`
	MemBudgetBytes int64 `json:"mem_budget_bytes,omitempty"`
	SpillBytes     int64 `json:"spill_bytes,omitempty"`
	PeakRSSBytes   int64 `json:"peak_rss_bytes,omitempty"`
}

// parseByteSize parses a human byte count: a plain integer is bytes, and the
// binary suffixes K/KB/KiB, M/MB/MiB, G/GB/GiB scale by 2^10/2^20/2^30. A
// negative value means "unbounded" to -mem-budget.
func parseByteSize(s string) (int64, error) {
	num, mult := strings.TrimSpace(s), int64(1)
	upper := strings.ToUpper(num)
	for _, suf := range []struct {
		name string
		mul  int64
	}{
		{"KIB", 1 << 10}, {"MIB", 1 << 20}, {"GIB", 1 << 30},
		{"KB", 1 << 10}, {"MB", 1 << 20}, {"GB", 1 << 30},
		{"K", 1 << 10}, {"M", 1 << 20}, {"G", 1 << 30},
	} {
		if strings.HasSuffix(upper, suf.name) {
			mult = suf.mul
			num = strings.TrimSpace(num[:len(num)-len(suf.name)])
			break
		}
	}
	n, err := strconv.ParseInt(num, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad byte size %q (want e.g. 1048576, 256KiB, 64M)", s)
	}
	return n * mult, nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("imsketch", flag.ContinueOnError)
	var (
		graphPath  = fs.String("graph", "", "path to a directed edge-list file")
		dataset    = fs.String("dataset", "", "named dataset (alternative to -graph); see imgraph -list")
		prob       = fs.String("prob", "iwc", "edge probability model: uc0.1, uc0.01, iwc, owc, tv")
		model      = fs.String("model", "IC", "diffusion model: IC or LT")
		rr         = fs.Int("rr", 200000, "number of reverse-reachable sets (the cap, for -target-eps builds)")
		seed       = fs.Uint64("seed", 1, "random seed (recorded in the sketch)")
		workers    = fs.Int("workers", -1, "build parallelism: 1 = serial, >1 = that many workers, -1 = all CPUs")
		out        = fs.String("out", "", "output sketch path (required for a build)")
		info       = fs.String("info", "", "verify an existing sketch or checkpoint section by section and exit")
		split      = fs.Int("split", 0, "split the sketch file given as the positional argument into this many shard files and exit (-out sets the shard-name prefix)")
		targetEps  = fs.Float64("target-eps", 0, "build adaptively to this relative error (0 = fixed -rr build)")
		delta      = fs.Float64("delta", 0.01, "failure probability of the -target-eps error bound")
		boundK     = fs.Int("k", 10, "seed-set size the -target-eps error bound targets")
		checkpoint = fs.String("checkpoint", "", "append-only build checkpoint file, durably extended every batch")
		resume     = fs.Bool("resume", false, "continue the build from an existing -checkpoint file")
		spill      = fs.Bool("spill", false, "stream RR sets to the checkpoint file as they are built (default <out>.spill) and keep only -mem-budget bytes decoded in memory")
		memBudget  = fs.String("mem-budget", "64MiB", "spill working-set budget, e.g. 256KiB or 1G (negative = unbounded; only with -spill)")
		progress   = fs.Bool("progress", false, "log build rounds to stderr")
		report     = fs.String("report", "", "write a JSON build report (sets, wall time, achieved bound) to this path")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *info != "" {
		return describe(*info)
	}
	if *split != 0 {
		if fs.NArg() != 1 {
			return fmt.Errorf("-split expects exactly one sketch path argument, got %d", fs.NArg())
		}
		return splitSketch(fs.Arg(0), *out, *split)
	}
	if *out == "" {
		return fmt.Errorf("-out is required (or use -info to inspect a sketch)")
	}
	var budget int64
	if *spill {
		var perr error
		if budget, perr = parseByteSize(*memBudget); perr != nil {
			return fmt.Errorf("-mem-budget: %w", perr)
		}
	}
	// A spill build without an explicit checkpoint keeps its scratch file next
	// to the sketch and removes it once the sketch is durable; an explicit
	// -checkpoint is the user's file and stays.
	autoSpill := false
	if *spill && *checkpoint == "" {
		*checkpoint = *out + ".spill"
		autoSpill = true
	}
	if *resume && *checkpoint == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}
	if *checkpoint != "" {
		// An existing checkpoint is only continued deliberately: without
		// -resume a leftover file from another run would otherwise be
		// silently extended.
		if st, err := os.Stat(*checkpoint); err == nil && st.Size() > 0 && !*resume {
			return fmt.Errorf("checkpoint %s already exists; pass -resume to continue it or remove it first", *checkpoint)
		} else if os.IsNotExist(err) && *resume {
			return fmt.Errorf("-resume: checkpoint %s does not exist", *checkpoint)
		}
	}
	var (
		network *imdist.Network
		err     error
	)
	switch {
	case *graphPath != "":
		f, ferr := os.Open(*graphPath)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		network, err = imdist.LoadEdgeList(f)
	case *dataset != "":
		network, err = imdist.LoadDataset(*dataset)
	default:
		return fmt.Errorf("either -graph or -dataset is required")
	}
	if err != nil {
		return err
	}
	ig, err := network.AssignProbabilities(*prob, *seed)
	if err != nil {
		return err
	}

	opt := imdist.OracleOptions{Model: *model, Seed: *seed, Workers: *workers}
	bopt := imdist.BuildOptions{
		TargetEps: *targetEps,
		Delta:     *delta,
		K:         *boundK,
		MaxSets:   *rr,
		Spill:     *spill,
		MemBudget: budget,
	}
	// The first progress report of a resumed build carries the durable set
	// count with nothing appended yet; capture it for the report instead of
	// paying a separate decode pass over the checkpoint.
	resumedFrom := 0
	sawFirst := false
	var spillBytes int64
	bopt.Progress = func(p imdist.BuildProgress) {
		if !sawFirst {
			resumedFrom = p.RRSets - p.Appended
			sawFirst = true
		}
		spillBytes = p.SpillBytes
		if !*progress {
			return
		}
		if math.IsInf(p.Bound, 1) {
			fmt.Fprintf(os.Stderr, "imsketch: %d/%d sets (%.0f%%)\n", p.RRSets, *rr, 100*p.Fraction)
		} else {
			fmt.Fprintf(os.Stderr, "imsketch: %d sets, bound %.4f (target %.4f, %.0f%%)\n",
				p.RRSets, p.Bound, *targetEps, 100*p.Fraction)
		}
	}

	start := time.Now()
	var (
		oracle *imdist.InfluenceOracle
		sum    imdist.BuildSummary
	)
	if *checkpoint != "" {
		oracle, sum, err = ig.BuildSketchWithCheckpoint(context.Background(), *checkpoint, opt, bopt)
	} else {
		builder, berr := ig.NewSketchBuilder(opt)
		if berr != nil {
			return berr
		}
		if sum, err = builder.Build(context.Background(), bopt); err == nil {
			oracle, err = builder.Oracle()
		}
	}
	if err != nil {
		return err
	}
	wall := time.Since(start)

	if err := oracle.SaveSketchFile(*out); err != nil {
		return err
	}
	fi, err := os.Stat(*out)
	if err != nil {
		return err
	}
	if autoSpill {
		// The sketch is durable; the scratch spill file has served its
		// purpose. (The oracle stays readable: its working set is in memory
		// and unix unlink keeps the mapped file alive until close.)
		os.Remove(*checkpoint)
	}
	if *spill {
		fmt.Printf("spill build: %d bytes streamed to disk, working-set budget %s, peak RSS %d MiB\n",
			spillBytes, *memBudget, peakRSS()>>20)
	}
	fmt.Printf("sketch: n=%d rr_sets=%d model=%s seed=%d (99%% CI +/- %.3f)\n",
		oracle.NumVertices(), oracle.NumRRSets(), oracle.Model(), oracle.BuildSeed(),
		oracle.ConfidenceHalfWidth99())
	if *targetEps > 0 {
		status := "converged"
		if !sum.Converged {
			status = fmt.Sprintf("capped at -rr %d", *rr)
		}
		fmt.Printf("adaptive build: bound %.4f vs target %.4f (%s) in %v\n", sum.Bound, *targetEps, status, wall.Round(time.Millisecond))
	}
	fmt.Printf("wrote %d bytes to %s\n", fi.Size(), *out)

	if *report != "" {
		r := buildReport{
			Dataset:    *dataset,
			Graph:      *graphPath,
			Prob:       *prob,
			Model:      string(oracle.Model()),
			Vertices:   oracle.NumVertices(),
			Seed:       *seed,
			Workers:    *workers,
			TargetEps:  *targetEps,
			K:          *boundK,
			MaxSets:    *rr,
			Sets:       sum.RRSets,
			Converged:  sum.Converged,
			Resumed:    resumedFrom,
			WallMillis: wall.Milliseconds(),
			Bytes:      fi.Size(),
		}
		if *spill {
			r.Spill = true
			r.MemBudgetBytes = budget
			r.SpillBytes = spillBytes
			r.PeakRSSBytes = peakRSS()
		}
		if *targetEps > 0 {
			r.Delta = *delta
		}
		if !math.IsInf(sum.Bound, 1) {
			r.Bound = sum.Bound
		}
		raw, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*report, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// splitSketch partitions an existing sketch file into shard files, reporting
// each written shard's path and slice.
func splitSketch(in, outPrefix string, shards int) error {
	if outPrefix == "" {
		outPrefix = in
	}
	start := time.Now()
	paths, err := imdist.SplitSketchFile(in, outPrefix, shards)
	if err != nil {
		return err
	}
	for _, p := range paths {
		fi, err := imdist.InspectSketchFile(p)
		if err != nil {
			return fmt.Errorf("verifying %s: %w", p, err)
		}
		fmt.Printf("shard %d/%d: %s (%d of %d rr_sets, %d bytes)\n",
			fi.ShardIndex, fi.ShardCount, p, fi.RRSets, fi.TotalSets, fi.Size)
	}
	fmt.Printf("split %s into %d shards in %v\n", in, len(paths), time.Since(start).Round(time.Millisecond))
	return nil
}

// describe verifies every section of a sketch or checkpoint file — structure
// and CRC-32C — and prints per-section extents. A corrupt file is reported
// section by section and returned as an error (nonzero exit).
func describe(path string) error {
	fi, err := imdist.InspectSketchFile(path)
	if err != nil {
		return err
	}
	kind := "sketch"
	if fi.Version == 2 {
		kind = "checkpoint"
	}
	fmt.Printf("%s: v%d n=%d rr_sets=%d model=%s seed=%d size=%d\n",
		kind, fi.Version, fi.Vertices, fi.RRSets, fi.Model, fi.BuildSeed, fi.Size)
	if fi.ShardCount > 0 {
		fmt.Printf("shard %d of %d, fleet total %d rr_sets\n", fi.ShardIndex, fi.ShardCount, fi.TotalSets)
	}
	fmt.Printf("%-12s %10s %12s %10s %10s %s\n", "section", "offset", "size", "rr_sets", "crc32c", "status")
	for _, s := range fi.Sections {
		status := "ok"
		if !s.OK {
			status = "CORRUPT: " + s.Detail
		}
		crc := "-"
		if s.CRC != 0 || s.Name == "checksum" {
			crc = fmt.Sprintf("%08x", s.CRC)
		}
		fmt.Printf("%-12s %10d %12d %10d %10s %s\n", s.Name, s.Offset, s.Size, s.RRSets, crc, status)
	}
	if fi.Corrupt {
		return fmt.Errorf("%s failed verification", path)
	}
	return nil
}
