// Command bench load-tests the diff service (cmd/diffd): it replays a
// generated commit history through concurrent HTTP clients and reports
// client-observed latency quantiles, throughput, and admission-control
// sheds:
//
//	bench                                   # self-contained: in-process daemon
//	bench -load-addr http://host:8347       # against a running diffd
//	bench -load-clients 16 -load-requests 1000
//	bench -load-trace                       # per-trace latency decomposition
//	bench -chaos -chaos-rate 0.1            # goodput under fault injection
//
// With -chaos a seeded fault proxy (internal/chaos) sits between the
// clients and the daemon, injecting connection resets, 5xx/429 answers,
// and truncated bodies at -chaos-rate; the clients retry with backoff and
// the report adds goodput (successful requests per second) plus injected
// fault counts.
//
// Performance is measured by pipebench/ (see docs/BENCHMARKING.md); this
// command checks the service's behaviour under load and faults and is not
// a performance gate.
//
// Exit status: 0 on success, 1 when a request failed for a reason other
// than admission control, 2 on setup errors.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		loadAddr     = flag.String("load-addr", "", "base URL of a running diffd (empty starts an in-process server)")
		loadClients  = flag.Int("load-clients", 8, "concurrent load-test clients")
		loadRequests = flag.Int("load-requests", 200, "total load-test requests")
		loadSeed     = flag.Int64("load-seed", 1, "corpus seed for the load test")
		loadTrace    = flag.Bool("load-trace", false, "record spans during the load test and print a per-trace latency decomposition")
		chaosOn      = flag.Bool("chaos", false, "inject faults through a seeded chaos proxy and report goodput")
		chaosRate    = flag.Float64("chaos-rate", 0.1, "with -chaos: total injected fault rate in [0,1]")
		chaosSeed    = flag.Int64("chaos-seed", 1, "with -chaos: fault schedule seed")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "bench: unexpected arguments")
		flag.Usage()
		os.Exit(2)
	}
	os.Exit(runLoad(loadConfig{
		addr:      *loadAddr,
		clients:   *loadClients,
		requests:  *loadRequests,
		seed:      *loadSeed,
		trace:     *loadTrace,
		chaos:     *chaosOn,
		chaosRate: *chaosRate,
		chaosSeed: *chaosSeed,
	}))
}
