// Command imserve serves influence queries from prebuilt RR-sketch files —
// the cheap, online half of the build-once / serve-many pipeline. One
// process holds a registry of named sketches (many graphs, many diffusion
// models) and answers any number of concurrent HTTP queries from them; the
// expensive sketch builds stay offline in imsketch.
//
// Usage:
//
//	imserve -sketch karate.sketch -addr :8080
//	imserve -sketch ic=karate-ic.sketch -sketch lt=karate-lt.sketch -default ic
//	imserve -sketch-dir /var/sketches -addr :8080
//
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/v1/sketches
//	curl -s -X POST localhost:8080/v1/influence -d '{"seeds":[0,33]}'
//	curl -s -X POST localhost:8080/v1/sketches/lt/influence -d '{"seeds":[0,33]}'
//	curl -s -X POST localhost:8080/v1/sketches/ic/influence:batch -d '[{"seeds":[0]},{"seeds":[33]}]'
//	curl -s -X POST localhost:8080/v1/admin/sketches -d '{"name":"new","path":"/var/sketches/new.sketch"}'
//	curl -s -X DELETE localhost:8080/v1/admin/sketches/new
//
// Each -sketch flag names one sketch as name=path (a bare path derives the
// name from the file name); -sketch-dir loads every *.sketch file in a
// directory under its base name. Sending SIGHUP re-scans the directory and
// hot-reloads its sketches copy-on-swap: in-flight queries finish on the
// oracle they started with, new requests see the new one, and memory-mapped
// files are unmapped only after their last query finishes. The unnamed
// legacy routes (/v1/influence, ...) alias the -default sketch (first
// loaded when unset).
//
// Coordinator mode fronts a fleet of imserve processes each serving one
// shard of a sketch split by imsketch -split:
//
//	imserve -sketch big.sketch.shard0-of-2 -addr :8081
//	imserve -sketch big.sketch.shard1-of-2 -addr :8082
//	imserve -coordinator -shard-target http://localhost:8081 \
//	        -shard-target http://localhost:8082 -addr :8080
//
// The coordinator serves the same public /v1 query API, byte-identical to a
// single process on the unsplit sketch, by scatter-gathering integer RR-set
// counts over the fleet (see internal/cluster). Shards hot-reload through
// their own admin APIs; the coordinator verifies fleet assembly on every
// query and answers 503 naming the missing target while a shard is down. It
// takes the request limits (-max-body, -max-seeds, -max-k, -max-batch) and
// rejects the flags that only a sketch-serving process uses (-sketch,
// -sketch-dir, -default, -cache, -batch-workers, -kernel, -read-timeout,
// -write-timeout).
//
// The process shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// requests.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"imdist/internal/cluster"
	"imdist/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "imserve:", err)
		os.Exit(1)
	}
}

// sketchFlags accumulates repeated -sketch values, each a comma-separated
// list of name=path or bare-path entries.
type sketchFlags []string

func (s *sketchFlags) String() string { return strings.Join(*s, ",") }

func (s *sketchFlags) Set(v string) error {
	*s = append(*s, v)
	return nil
}

// sketchStamp records the file identity a sketch was loaded from, so a
// SIGHUP rescan can skip files that have not changed since the last load.
type sketchStamp struct {
	path  string
	size  int64
	mtime time.Time
}

func run(args []string) error {
	fs := flag.NewFlagSet("imserve", flag.ContinueOnError)
	var sketches sketchFlags
	fs.Var(&sketches, "sketch", "sketch to serve, as name=path or a bare path (repeatable, comma-separable)")
	var shardTargets sketchFlags
	fs.Var(&shardTargets, "shard-target", "shard server base URL for -coordinator mode (repeatable, comma-separable)")
	var (
		coordinator  = fs.Bool("coordinator", false, "front a fleet of -shard-target servers instead of serving sketches directly")
		coordSketch  = fs.String("coordinator-sketch", "", "sketch name the coordinator's unnamed routes query on the shard servers (default: each shard's default sketch)")
		sketchDir    = fs.String("sketch-dir", "", "directory of *.sketch files to serve under their base names; SIGHUP re-scans it")
		defaultName  = fs.String("default", "", "sketch name aliased by the unnamed legacy routes (default: first sketch loaded)")
		addr         = fs.String("addr", ":8080", "listen address")
		cache        = fs.Int("cache", server.DefaultCacheSize, "per-sketch LRU query-cache entries (negative disables)")
		maxBody      = fs.Int64("max-body", server.DefaultMaxBodyBytes, "maximum request body size in bytes")
		maxSeeds     = fs.Int("max-seeds", server.DefaultMaxSeeds, "maximum seed-set size per /v1/influence request")
		maxK         = fs.Int("max-k", server.DefaultMaxK, "maximum k for /v1/seeds and /v1/top")
		maxBatch     = fs.Int("max-batch", server.DefaultMaxBatchQueries, "maximum queries per /v1/influence:batch request")
		batchW       = fs.Int("batch-workers", -1, "batch evaluation parallelism: 1 = request goroutine, -1 = all CPUs")
		kernel       = fs.String("kernel", "auto", "coverage kernel for every served sketch: auto, epoch or bitpack (answers are identical; only speed differs)")
		readTimeout  = fs.Duration("read-timeout", server.DefaultReadTimeout, "HTTP request read timeout (0 disables)")
		writeTimeout = fs.Duration("write-timeout", server.DefaultWriteTimeout, "HTTP response write timeout (0 disables)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coordinator {
		// The coordinator holds no sketch, cache or kernel and runs with the
		// default timeouts: refuse the flags that would silently do nothing.
		var ignored []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "sketch", "sketch-dir", "default", "cache", "batch-workers", "kernel", "read-timeout", "write-timeout":
				ignored = append(ignored, "-"+f.Name)
			}
		})
		if len(ignored) > 0 {
			return fmt.Errorf("-coordinator serves a shard fleet and does not take %s", strings.Join(ignored, ", "))
		}
		var targets []string
		for _, group := range shardTargets {
			for _, t := range strings.Split(group, ",") {
				if t = strings.TrimSpace(t); t != "" {
					targets = append(targets, t)
				}
			}
		}
		return runCoordinator(cluster.Config{
			Targets:         targets,
			Sketch:          *coordSketch,
			MaxBodyBytes:    *maxBody,
			MaxSeeds:        *maxSeeds,
			MaxK:            *maxK,
			MaxBatchQueries: *maxBatch,
		}, *addr)
	}
	if len(shardTargets) != 0 {
		return fmt.Errorf("-shard-target requires -coordinator")
	}
	if len(sketches) == 0 && *sketchDir == "" {
		return fmt.Errorf("at least one -sketch or a -sketch-dir is required")
	}

	// 0 means "disabled" on the flag but "default" in server.Config; map it
	// to the config's negative-disables convention.
	toConfigTimeout := func(d time.Duration) time.Duration {
		if d == 0 {
			return -1
		}
		return d
	}
	srv, err := server.New(server.Config{
		AllowEmpty:      true,
		DefaultSketch:   *defaultName,
		CacheSize:       *cache,
		MaxBodyBytes:    *maxBody,
		MaxSeeds:        *maxSeeds,
		MaxK:            *maxK,
		MaxBatchQueries: *maxBatch,
		BatchWorkers:    *batchW,
		Kernel:          *kernel,
		ReadTimeout:     toConfigTimeout(*readTimeout),
		WriteTimeout:    toConfigTimeout(*writeTimeout),
	})
	if err != nil {
		return err
	}
	reg := srv.Registry()

	// Explicit -sketch flags load first and are never unloaded by rescans.
	flagNames := make(map[string]bool)
	for _, group := range sketches {
		for _, spec := range strings.Split(group, ",") {
			name, path, err := server.ParseSketchSpec(strings.TrimSpace(spec))
			if err != nil {
				return err
			}
			if err := loadAndLog(reg, name, path); err != nil {
				return err
			}
			flagNames[name] = true
		}
	}
	dirStamps := make(map[string]sketchStamp)
	if *sketchDir != "" {
		var err error
		if dirStamps, err = scanSketchDir(reg, *sketchDir, flagNames, nil); err != nil {
			return err
		}
	}
	if reg.Len() == 0 {
		return fmt.Errorf("no sketches loaded from -sketch flags or %s", *sketchDir)
	}
	log.Printf("serving %d sketch(es) %v, default %q", reg.Len(), reg.Names(), reg.DefaultName())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *sketchDir != "" {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for {
				select {
				case <-ctx.Done():
					return
				case <-hup:
					log.Printf("SIGHUP: re-scanning %s", *sketchDir)
					scanned, err := scanSketchDir(reg, *sketchDir, flagNames, dirStamps)
					if err != nil {
						log.Printf("rescan failed, keeping current sketches: %v", err)
						continue
					}
					// Unload sketches whose files disappeared (but never
					// ones pinned by -sketch flags).
					for name := range dirStamps {
						if _, still := scanned[name]; !still && !flagNames[name] {
							if err := reg.Unload(name); err == nil {
								log.Printf("unloaded %s (file removed)", name)
							}
						}
					}
					dirStamps = scanned
					log.Printf("serving %d sketch(es) %v, default %q", reg.Len(), reg.Names(), reg.DefaultName())
				}
			}
		}()
	}

	log.Printf("serving on %s", *addr)
	if err := srv.ListenAndServe(ctx, *addr); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Printf("shut down cleanly")
	return nil
}

// runCoordinator serves the public query API over a shard fleet until
// SIGINT/SIGTERM.
func runCoordinator(cfg cluster.Config, addr string) error {
	coord, err := cluster.New(cfg)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	log.Printf("coordinating %d shard target(s) %v", len(cfg.Targets), cfg.Targets)
	log.Printf("serving on %s", addr)
	if err := coord.ListenAndServe(ctx, addr); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Printf("shut down cleanly")
	return nil
}

// scanSketchDir loads every *.sketch file in dir under its base name
// (copy-on-swap replacing any sketch already held under that name) and
// returns the stamp of every name now backed by a dir file. Files whose
// (path, size, mtime) match their stamp in prev are left as loaded —
// a rescan only pays for sketches that actually changed, and their warm
// caches survive. Files that fail to load are skipped with a log line —
// one corrupt sketch must not take down a rescan — and names pinned by
// -sketch flags are reported, not silently replaced.
func scanSketchDir(reg *server.Registry, dir string, flagNames map[string]bool, prev map[string]sketchStamp) (map[string]sketchStamp, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	stampByName := make(map[string]sketchStamp, len(entries))
	for _, ent := range entries {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".sketch") {
			continue
		}
		info, err := ent.Info()
		if err != nil {
			log.Printf("skipping %s: %v", ent.Name(), err)
			continue
		}
		name := server.SketchNameForFile(ent.Name())
		names = append(names, name)
		stampByName[name] = sketchStamp{
			path:  filepath.Join(dir, ent.Name()),
			size:  info.Size(),
			mtime: info.ModTime(),
		}
	}
	sort.Strings(names)
	loaded := make(map[string]sketchStamp, len(names))
	for _, name := range names {
		stamp := stampByName[name]
		if flagNames[name] {
			log.Printf("skipping %s: name %q is pinned by a -sketch flag", stamp.path, name)
			continue
		}
		if stamp == prev[name] {
			loaded[name] = stamp // unchanged since last load; keep as is
			continue
		}
		if err := loadAndLog(reg, name, stamp.path); err != nil {
			log.Printf("skipping %s: %v", stamp.path, err)
			continue
		}
		loaded[name] = stamp
	}
	return loaded, nil
}

func loadAndLog(reg *server.Registry, name, path string) error {
	start := time.Now()
	if err := reg.LoadFile(name, path); err != nil {
		return err
	}
	log.Printf("loaded %q from %s in %v", name, path, time.Since(start).Round(time.Millisecond))
	return nil
}
