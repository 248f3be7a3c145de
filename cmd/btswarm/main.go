// Command btswarm runs a real BitTorrent swarm over loopback TCP: an HTTP
// tracker, one or more seeds, and a set of leecher clients, all in one
// process. Each leecher logs the paper's measurement trace (cumulative
// bytes + potential-set size) which is analyzed and optionally written to
// disk — the repository's stand-in for the paper's instrumented
// BitTornado deployment (Section 4.2).
//
// Usage:
//
//	btswarm -leechers 4 -size 262144 -piecesize 16384
//	btswarm -leechers 3 -avoid-seeds=false -traces out/
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metainfo"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tracker"
)

func main() {
	var (
		leechers   = flag.Int("leechers", 3, "number of leecher clients")
		size       = flag.Int("size", 256<<10, "content size in bytes")
		pieceSize  = flag.Int64("piecesize", 16<<10, "piece size in bytes")
		blockSize  = flag.Int("blocksize", 4<<10, "request block size in bytes")
		maxPeers   = flag.Int("maxpeers", 20, "neighbor cap per client")
		maxUploads = flag.Int("uploads", 4, "unchoke slots per client (k)")
		avoidSeeds = flag.Bool("avoid-seeds", false, "leechers never download from seeds (paper §4.2)")
		shakeAt    = flag.Float64("shake", 0, "shake threshold (0 disables)")
		rarest     = flag.Bool("rarest", true, "rarest-first picking (false = random-first)")
		upRate     = flag.Int64("uprate", 256<<10, "per-client upload cap in bytes/sec (0 = unlimited)")
		timeout    = flag.Duration("timeout", 2*time.Minute, "maximum wall-clock wait")
		tracesTo   = flag.String("traces", "", "directory for JSONL traces")
		seed       = flag.Uint64("seed", 7, "content RNG seed")
		faultsIn   = flag.String("faults", "", `fault scenario, e.g. "seed=42,drop=0.2,latency=2ms,blackout=1:3"`)
		debugAddr  = flag.String("debug-addr", "", "serve pprof/expvar/metrics on this address (e.g. :6060)")
		metricsOut = flag.String("metrics", "", "write periodic JSONL metric snapshots to this file")
		logCfg     = obs.RegisterLogFlags(nil)
	)
	flag.Parse()
	logger := logCfg.Logger()
	if err := run(os.Stdout, logger, options{
		leechers: *leechers, size: *size, pieceSize: *pieceSize,
		blockSize: *blockSize, maxPeers: *maxPeers, maxUploads: *maxUploads,
		avoidSeeds: *avoidSeeds, shakeAt: *shakeAt, rarest: *rarest,
		upRate:  *upRate,
		timeout: *timeout, tracesTo: *tracesTo, seed: *seed,
		faultSpec: *faultsIn,
		debugAddr: *debugAddr, metricsOut: *metricsOut,
	}); err != nil {
		logger.Error("btswarm failed", "err", err)
		os.Exit(1)
	}
}

type options struct {
	leechers   int
	size       int
	pieceSize  int64
	blockSize  int
	maxPeers   int
	maxUploads int
	avoidSeeds bool
	shakeAt    float64
	rarest     bool
	upRate     int64
	timeout    time.Duration
	tracesTo   string
	seed       uint64
	faultSpec  string
	debugAddr  string
	metricsOut string
}

func run(w io.Writer, logger *slog.Logger, o options) error {
	// Fault scenario: net-level conn faults wrap every leecher connection;
	// blackout windows wrap the tracker listener. Both are sampled from the
	// spec's own seed, so a scenario replays identically.
	spec, err := faults.ParseSpec(o.faultSpec)
	if err != nil {
		return err
	}
	var injector *faults.Injector
	if spec.DropRate > 0 || spec.CorruptRate > 0 || spec.StallRate > 0 || spec.Latency > 0 {
		injector = spec.Injector()
	}

	// Observability: one registry shared by the tracker and every client,
	// optionally exported over HTTP and as periodic JSONL snapshots.
	reg := obs.NewRegistry()
	if injector != nil {
		injector.Instrument(reg)
	}
	if o.debugAddr != "" {
		ds, err := obs.ServeDebug(o.debugAddr, reg)
		if err != nil {
			return err
		}
		defer ds.Drain(2 * time.Second) //nolint:errcheck
		fmt.Fprintf(w, "debug endpoints on http://%s/debug/pprof/ (metrics at /metrics)\n", ds.Addr())
	}
	var emitter *obs.Emitter
	if o.metricsOut != "" {
		f, err := os.Create(o.metricsOut)
		if err != nil {
			return err
		}
		defer f.Close() //nolint:errcheck
		emitter = obs.NewEmitter(f, reg, 250*time.Millisecond)
		emitter.Start()
		defer func() {
			if err := emitter.Stop(); err != nil {
				logger.Error("metrics emitter", "err", err)
			}
		}()
	}

	// Tracker.
	srv := tracker.NewServer()
	srv.Instrument(reg, logger)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	announce := "http://" + ln.Addr().String() + "/announce"
	if len(spec.Blackouts) > 0 {
		ln = faults.BlackoutListener(ln, spec.Blackouts)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() { _ = httpSrv.Serve(ln) }()
	defer httpSrv.Close() //nolint:errcheck
	fmt.Fprintf(w, "tracker on %s\n", announce)
	if o.faultSpec != "" {
		fmt.Fprintf(w, "fault scenario: %s\n", spec.String())
	}

	// Content + torrent.
	r := stats.NewRNG(o.seed, o.seed^0xC0)
	content := make([]byte, o.size)
	for i := range content {
		content[i] = byte(r.IntN(256))
	}
	info, err := metainfo.FromContent("swarm.bin", content, o.pieceSize)
	if err != nil {
		return err
	}
	blob, err := metainfo.Marshal(announce, info)
	if err != nil {
		return err
	}
	torrent, err := metainfo.Unmarshal(blob)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "torrent %s: %d pieces x %d bytes\n",
		torrent.Hash, info.NumPieces(), o.pieceSize)

	strategy := client.PickRarestFirst
	if !o.rarest {
		strategy = client.PickRandomFirst
	}

	// Seed.
	seedStore, err := client.NewSeededStorage(torrent.Info, content)
	if err != nil {
		return err
	}
	seedClient, err := client.New(client.Config{
		Torrent: torrent, Storage: seedStore, Name: "seed",
		BlockSize: o.blockSize, MaxPeers: o.maxPeers, MaxUploads: o.maxUploads,
		UploadRate:    o.upRate,
		ChokeInterval: 200 * time.Millisecond, SampleInterval: 100 * time.Millisecond,
		AnnounceInterval: 500 * time.Millisecond,
		Seed1:            o.seed + 100, Seed2: 1,
		Metrics: reg, Logger: logger,
	})
	if err != nil {
		return err
	}
	if err := seedClient.Start(context.Background()); err != nil {
		return err
	}
	defer seedClient.Stop()

	// Leechers. Injected conn faults apply to the leechers only; the seed
	// stays clean so the swarm always has one reliable source.
	var wrapConn func(net.Conn) net.Conn
	if injector != nil {
		wrapConn = injector.WrapConn
	}
	var clients []*client.Client
	for i := 0; i < o.leechers; i++ {
		store, err := client.NewStorage(torrent.Info)
		if err != nil {
			return err
		}
		cl, err := client.New(client.Config{
			Torrent: torrent, Storage: store,
			Name:      fmt.Sprintf("leecher-%d", i),
			BlockSize: o.blockSize, MaxPeers: o.maxPeers, MaxUploads: o.maxUploads,
			UploadRate: o.upRate,
			Strategy:   strategy, AvoidSeeds: o.avoidSeeds, ShakeThreshold: o.shakeAt,
			ChokeInterval: 200 * time.Millisecond, SampleInterval: 100 * time.Millisecond,
			AnnounceInterval: 500 * time.Millisecond,
			Seed1:            o.seed + uint64(200+i), Seed2: uint64(i),
			ConnWrapper: wrapConn,
			Metrics:     reg, Logger: logger,
		})
		if err != nil {
			return err
		}
		if err := cl.Start(context.Background()); err != nil {
			return err
		}
		defer cl.Stop()
		clients = append(clients, cl)
	}

	// Wait for completion.
	deadline := time.After(o.timeout)
	start := time.Now()
	for i, cl := range clients {
		select {
		case <-cl.Done():
			fmt.Fprintf(w, "leecher-%d complete after %.2fs\n", i, time.Since(start).Seconds())
		case <-deadline:
			return fmt.Errorf("leecher-%d did not complete within %v", i, o.timeout)
		}
	}
	// One extra sampling period so the final state is recorded.
	time.Sleep(250 * time.Millisecond)

	if injector != nil {
		sched := injector.Schedule()
		faulted := 0
		for _, d := range sched {
			if d.Drop > 0 || d.Corrupt || d.Stall > 0 || d.Latency > 0 {
				faulted++
			}
		}
		fmt.Fprintf(w, "faults: %d connections wrapped, %d faulted\n", len(sched), faulted)
	}

	// Analyze and persist traces.
	if o.tracesTo != "" {
		if err := os.MkdirAll(o.tracesTo, 0o755); err != nil {
			return err
		}
	}
	var collected []*trace.Download
	for i, cl := range clients {
		d := cl.Trace()
		collected = append(collected, d)
		rep, err := trace.Analyze(d)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "leecher-%d: %s\n", i, rep)
		if o.tracesTo != "" {
			path := filepath.Join(o.tracesTo, fmt.Sprintf("leecher-%d.jsonl", i))
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			err = trace.Write(f, d)
			cerr := f.Close()
			if err != nil {
				return err
			}
			if cerr != nil {
				return cerr
			}
			fmt.Fprintf(w, "  trace written to %s\n", path)
		}
	}
	// Close the Section 4.2 loop: estimate the multiphased chain's
	// parameters from the real-client traces just collected.
	if fit, err := core.Estimate(collected); err == nil {
		fmt.Fprintln(w, fit)
	}
	return nil
}
