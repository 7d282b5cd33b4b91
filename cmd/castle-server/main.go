// Command castle-server serves SQL over HTTP against the CAPE simulator:
// it generates (or loads) a database, starts the admission-controlled query
// service, and exposes POST /query, GET /metrics (Prometheus text format)
// and GET /healthz. SIGINT/SIGTERM drain gracefully: in-flight and queued
// queries finish, then the process exits 0.
//
// Usage:
//
//	castle-server -sf 0.01 -listen :8642              # serve SSB at SF 0.01
//	castle-server -load ssb.cstl -device hybrid
//	castle-server -client http://localhost:8642 -clients 8 -requests 50
//
// The -client mode is a load generator: it fires mixed SSB queries at a
// running server from concurrent clients and prints a latency/outcome
// summary, exiting non-zero if any request fails.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"sync"
	"syscall"
	"time"

	"castle"
	"castle/internal/server"
)

func main() {
	listen := flag.String("listen", ":8642", "address to serve HTTP on")
	sf := flag.Float64("sf", 0.01, "SSB scale factor to generate")
	seed := flag.Uint64("seed", 1, "SSB generator seed")
	loadPath := flag.String("load", "", "load a CSTL binary database instead of generating SSB")
	device := flag.String("device", "hybrid", "default execution device: cape, cpu, or hybrid")
	placement := flag.String("placement", "whole-query", "hybrid device granularity: whole-query or per-operator")
	capeTiles := flag.Int("cape-tiles", 2, "number of CAPE tiles to schedule")
	cpuSlots := flag.Int("cpu-slots", 2, "number of baseline-CPU slots to schedule")
	maxTiles := flag.Int("max-tiles", 1, "elastic lease size: tiles/slots a single query may fan its fact sweep across")
	queueDepth := flag.Int("queue", 64, "admission queue depth (beyond this, requests are shed with 429)")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-request deadline")
	slowMs := flag.Int64("slow-query-ms", 0, "log requests slower than this many milliseconds with phase attribution (0 disables)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this separate address (empty disables)")
	clusterNodes := flag.Int("cluster-nodes", 0, "shard the database across this many simulated nodes behind a scatter-gather coordinator (0 = single-node)")
	clusterReplicas := flag.Int("cluster-replicas", 1, "replicas per shard; the coordinator load-balances by queue depth")
	clusterPartition := flag.String("cluster-partition", "hash", "fact-table partitioning scheme: hash or range (range enables shard pruning)")
	clusterKey := flag.String("cluster-partition-key", "lo_orderdate", "fact column to partition on")
	scanSharing := flag.Bool("scan-sharing", false, "coalesce concurrent same-table queries into fused shared scans")
	coalesceWindow := flag.Duration("coalesce-window", 2*time.Millisecond, "how long an arriving query waits for sweep-mates before flushing (with -scan-sharing)")
	maxGroup := flag.Int("max-group", 8, "largest fused shared-scan group (with -scan-sharing)")

	clientURL := flag.String("client", "", "run as a load-generating client against this base URL instead of serving")
	clients := flag.Int("clients", 8, "client mode: concurrent clients")
	requests := flag.Int("requests", 50, "client mode: requests per client")
	mixedTenant := flag.Bool("mixed-tenant", false, "client mode: skewed multi-tenant workload at a fixed offered load instead of round-robin closed loop")
	rate := flag.Float64("rate", 200, "mixed-tenant mode: offered load in requests/second across all clients")
	loadDur := flag.Duration("load-duration", 10*time.Second, "mixed-tenant mode: how long to offer load")
	flag.Parse()

	if *clientURL != "" {
		if *mixedTenant {
			os.Exit(runMixedTenant(*clientURL, *clients, *rate, *loadDur, *timeout))
		}
		os.Exit(runClient(*clientURL, *clients, *requests, *timeout))
	}

	if _, err := castle.ParseDevice(*device); err != nil {
		fatalf("%v", err)
	}
	if _, err := castle.ParsePlacement(*placement); err != nil {
		fatalf("%v", err)
	}

	var db *castle.DB
	if *loadPath != "" {
		var err error
		if db, err = castle.Open(*loadPath); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("loaded database from %s\n", *loadPath)
	} else {
		fmt.Printf("generating SSB at SF=%.2f...\n", *sf)
		db = castle.GenerateSSB(*sf, *seed)
	}

	svc, err := server.New(db, nil, server.Config{
		Device:              *device,
		Placement:           *placement,
		QueueDepth:          *queueDepth,
		CAPETiles:           *capeTiles,
		CPUSlots:            *cpuSlots,
		MaxTilesPerQuery:    *maxTiles,
		DefaultTimeout:      *timeout,
		SlowQueryMillis:     *slowMs,
		ClusterNodes:        *clusterNodes,
		ClusterReplicas:     *clusterReplicas,
		ClusterPartition:    *clusterPartition,
		ClusterPartitionKey: *clusterKey,
		ScanSharing:         *scanSharing,
		CoalesceWindow:      *coalesceWindow,
		MaxGroupSize:        *maxGroup,
	})
	if err != nil {
		// Topology errors (negative shard/replica counts, a partition key
		// absent from the schema, an unknown scheme) land here descriptively.
		fatalf("%v", err)
	}

	if *debugAddr != "" {
		// Profiling gets its own mux on its own listener, so pprof never
		// shares the serving port (or its admission queue) with queries.
		debugMux := http.NewServeMux()
		debugMux.HandleFunc("/debug/pprof/", pprof.Index)
		debugMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		debugMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		debugMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		debugMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			fmt.Printf("pprof listening on %s\n", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, debugMux); err != nil {
				fmt.Fprintf(os.Stderr, "castle-server: pprof listener: %v\n", err)
			}
		}()
	}

	httpSrv := newHTTPServer(*listen, svc.Handler(), svc.MaxDeadline())
	errCh := make(chan error, 1)
	go func() {
		fmt.Printf("%v listening on %s\n", svc, *listen)
		errCh <- httpSrv.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		fmt.Println("shutting down: draining in-flight queries...")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			fatalf("shutdown: %v", err)
		}
		if err := svc.Close(); err != nil {
			fatalf("drain: %v", err)
		}
		fmt.Println("drained cleanly")
	case err := <-errCh:
		fatalf("serve: %v", err)
	}
}

// HTTP server timeouts. Headers and the (at most server.MaxQueryBodyBytes)
// body of a request arrive within seconds from any live client; a
// connection that trickles them is cut instead of holding a goroutine.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
	// writeGrace is how long a response may take to serialize and send
	// after the request's deadline has expired.
	writeGrace = 15 * time.Second
)

// newHTTPServer builds the serving http.Server. The write timeout runs
// from the end of the request headers to the end of the response, so it
// must outlast the longest request deadline (maxDeadline) plus writeGrace:
// a query that uses its whole deadline still gets its 504 or its rows.
func newHTTPServer(addr string, h http.Handler, maxDeadline time.Duration) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      maxDeadline + writeGrace,
		IdleTimeout:       idleTimeout,
	}
}

// runClient is the load generator: nClients goroutines each issue nRequests
// mixed SSB queries and record latency and outcome.
func runClient(baseURL string, nClients, nRequests int, timeout time.Duration) int {
	queries := castle.SSBQueries()
	httpc := &http.Client{Timeout: timeout + 5*time.Second}

	type outcome struct {
		status  int
		micros  int64
		timings server.Timings
		failure string
	}
	results := make([][]outcome, nClients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < nRequests; i++ {
				q := queries[(c+i)%len(queries)]
				body, _ := json.Marshal(server.Request{SQL: q.SQL})
				t0 := time.Now()
				resp, err := httpc.Post(baseURL+"/query", "application/json", bytes.NewReader(body))
				o := outcome{micros: time.Since(t0).Microseconds()}
				if err != nil {
					o.failure = err.Error()
				} else {
					o.status = resp.StatusCode
					if resp.StatusCode != http.StatusOK {
						b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
						o.failure = fmt.Sprintf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
					} else {
						var sr server.Response
						if derr := json.NewDecoder(resp.Body).Decode(&sr); derr == nil {
							o.timings = sr.TimingsMicros
						}
					}
					resp.Body.Close()
				}
				results[c] = append(results[c], o)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var ok, failed int
	var lat []int64
	var sum server.Timings
	for _, rs := range results {
		for _, o := range rs {
			if o.failure == "" {
				ok++
				lat = append(lat, o.micros)
				sum.QueueMicros += o.timings.QueueMicros
				sum.LeaseMicros += o.timings.LeaseMicros
				sum.ExecMicros += o.timings.ExecMicros
				sum.SerializeMicros += o.timings.SerializeMicros
			} else {
				failed++
				fmt.Fprintf(os.Stderr, "request failed: %s\n", o.failure)
			}
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pct := func(p float64) float64 {
		if len(lat) == 0 {
			return 0
		}
		i := int(p * float64(len(lat)-1))
		return float64(lat[i]) / 1e3
	}
	fmt.Printf("clients=%d requests=%d ok=%d failed=%d elapsed=%.2fs throughput=%.1f req/s\n",
		nClients, nClients*nRequests, ok, failed, elapsed.Seconds(),
		float64(ok)/elapsed.Seconds())
	fmt.Printf("latency ms: p50=%.2f p90=%.2f p99=%.2f max=%.2f\n",
		pct(0.50), pct(0.90), pct(0.99), pct(1.0))
	if ok > 0 {
		n := float64(ok) * 1e3
		fmt.Printf("server-side attribution (mean ms): queue=%.2f lease=%.2f exec=%.2f serialize=%.2f\n",
			float64(sum.QueueMicros)/n, float64(sum.LeaseMicros)/n,
			float64(sum.ExecMicros)/n, float64(sum.SerializeMicros)/n)
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// runMixedTenant offers a skewed multi-tenant workload at a fixed open-loop
// rate: a handful of hot dashboard fingerprints dominate arrivals, the full
// SSB tail fills the rest, and arrivals are spread evenly across clients
// regardless of completion times. It reports latency percentiles plus the
// shared-sweep hit rate — the fraction of answers served by a fused group —
// which is how scan sharing shows up to tenants.
func runMixedTenant(baseURL string, nClients int, rate float64, dur, timeout time.Duration) int {
	queries := castle.SSBQueries()
	// Weighted fingerprint mix: tenants hammer a few dashboards (Q2.1,
	// Q3.2, Q1.1 here) while the rest of the suite trickles. Weights are
	// expanded into a pick table so a uniform index draw realizes the skew.
	weights := make([]int, len(queries))
	for i := range weights {
		weights[i] = 1
	}
	weights[3], weights[8], weights[0] = 8, 6, 4
	var pick []int
	for qi, w := range weights {
		for j := 0; j < w; j++ {
			pick = append(pick, qi)
		}
	}

	if nClients < 1 {
		nClients = 1
	}
	if rate <= 0 {
		rate = 1
	}
	httpc := &http.Client{Timeout: timeout + 5*time.Second}
	interval := time.Duration(float64(nClients) / rate * float64(time.Second))
	if interval <= 0 {
		interval = time.Microsecond
	}

	type tally struct {
		ok, failed, shared int
		lat                []int64
	}
	tallies := make([]tally, nClients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tick := time.NewTicker(interval)
			defer tick.Stop()
			deadline := start.Add(dur)
			for seq := 0; time.Now().Before(deadline); seq++ {
				// Deterministic per-client skewed draw: no shared rng state.
				q := queries[pick[(c*7919+seq*104729)%len(pick)]]
				body, _ := json.Marshal(server.Request{SQL: q.SQL})
				t0 := time.Now()
				resp, err := httpc.Post(baseURL+"/query", "application/json", bytes.NewReader(body))
				tl := &tallies[c]
				if err != nil {
					tl.failed++
					fmt.Fprintf(os.Stderr, "request failed: %v\n", err)
				} else {
					if resp.StatusCode == http.StatusOK {
						var sr server.Response
						if derr := json.NewDecoder(resp.Body).Decode(&sr); derr == nil {
							tl.ok++
							tl.lat = append(tl.lat, time.Since(t0).Microseconds())
							if sr.GroupSize > 1 {
								tl.shared++
							}
						} else {
							tl.failed++
						}
					} else {
						// Sheds are an expected outcome at fixed offered
						// load, not a generator failure.
						tl.failed++
						b, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
						fmt.Fprintf(os.Stderr, "HTTP %d: %s\n", resp.StatusCode, bytes.TrimSpace(b))
					}
					resp.Body.Close()
				}
				select {
				case <-tick.C:
				default:
					<-tick.C // behind schedule: next arrival fires immediately
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all tally
	for _, tl := range tallies {
		all.ok += tl.ok
		all.failed += tl.failed
		all.shared += tl.shared
		all.lat = append(all.lat, tl.lat...)
	}
	sort.Slice(all.lat, func(i, j int) bool { return all.lat[i] < all.lat[j] })
	pct := func(p float64) float64 {
		if len(all.lat) == 0 {
			return 0
		}
		return float64(all.lat[int(p*float64(len(all.lat)-1))]) / 1e3
	}
	fmt.Printf("mixed-tenant: clients=%d offered=%.0f req/s duration=%.1fs ok=%d failed=%d achieved=%.1f req/s\n",
		nClients, rate, elapsed.Seconds(), all.ok, all.failed, float64(all.ok)/elapsed.Seconds())
	fmt.Printf("latency ms: p50=%.2f p90=%.2f p99=%.2f max=%.2f\n",
		pct(0.50), pct(0.90), pct(0.99), pct(1.0))
	hit := 0.0
	if all.ok > 0 {
		hit = float64(all.shared) / float64(all.ok)
	}
	fmt.Printf("shared-sweep hit rate: %.1f%% (%d of %d answers served by fused groups)\n",
		hit*100, all.shared, all.ok)
	if all.ok == 0 {
		return 1
	}
	return 0
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "castle-server: "+format+"\n", args...)
	os.Exit(1)
}
