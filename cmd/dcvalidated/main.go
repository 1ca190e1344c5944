// Command dcvalidated serves the validation plane's query API over HTTP:
// per-device conformance, reachability with counterexample packets, fleet
// summaries, and Prometheus metrics, backed by the engine's
// generation-keyed serving caches — a steady-state repeat query is an
// O(1) cache hit with zero revalidation work (watch
// dcv_serve_cache_hits_total climb on repeats).
//
// The -engine flag swaps the verification engine behind every sweep —
// trie (default) or smt — without changing any verdict.
//
// Usage:
//
//	dcvalidated -addr :8080 -clusters 6 -tors 12
//
//	curl 'localhost:8080/summary'
//	curl 'localhost:8080/device?name=dc-c0-t0-0'
//	curl 'localhost:8080/reach?src=dc-c0-t0-0&dst=dc-c1-t0-0'
//	curl -X POST 'localhost:8080/link?a=dc-c0-t0-0&b=dc-c0-t1-0&action=fail'
//	curl 'localhost:8080/violations'
//	curl 'localhost:8080/metrics' | grep dcv_serve
package main

import (
	"flag"
	"fmt"
	"os"

	"dcvalidate/internal/engine"
	"dcvalidate/internal/serve"
	"dcvalidate/internal/topology"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		clusters = flag.Int("clusters", 4, "clusters")
		tors     = flag.Int("tors", 8, "ToRs per cluster")
		leaves   = flag.Int("leaves", 4, "leaves per cluster")
		spines   = flag.Int("spines", 2, "spines per plane")
		rs       = flag.Int("rs", 4, "regional spines")
		rslinks  = flag.Int("rslinks", 2, "RS links per spine")
		warm     = flag.Bool("warm", true, "run the first fleet sweep at boot so the first query hits the cache")
		engName  = flag.String("engine", "", "verification engine: trie (default) or smt")
	)
	flag.Parse()
	kind, err := engine.ParseKind(*engName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcvalidated:", err)
		os.Exit(2)
	}

	topo, err := topology.New(topology.Params{
		Name: "dc", Clusters: *clusters, ToRsPerCluster: *tors,
		LeavesPerCluster: *leaves, SpinesPerPlane: *spines,
		RegionalSpines: *rs, RSLinksPerSpine: *rslinks,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcvalidated:", err)
		os.Exit(2)
	}
	eng := engine.New(topo, nil)
	eng.Metrics()
	eng.SetDefaultEngine(kind)
	srv := serve.New(eng)
	if *warm {
		sum, err := eng.Summary()
		if err != nil {
			fmt.Fprintln(os.Stderr, "dcvalidated: warm sweep:", err)
			os.Exit(2)
		}
		fmt.Printf("dcvalidated: warmed %d devices (%d contracts) at generation %d\n",
			sum.Devices, sum.Contracts, sum.Generation)
	}
	fmt.Printf("dcvalidated: serving %d devices on %s\n", len(topo.Devices), *addr)
	if err := serve.NewHTTPServer(*addr, srv).ListenAndServe(); err != nil {
		fmt.Fprintln(os.Stderr, "dcvalidated:", err)
		os.Exit(2)
	}
}
