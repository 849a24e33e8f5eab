// Serve: the full query-server loop in one program — start `arb serve`'s
// engine (internal/server) over a freshly created database, query it over
// real HTTP from concurrent clients, read the /stats counters that show
// the plan cache at work, and drain the listener gracefully. This is the
// compile-once/query-many shape of the paper deployed as a long-running
// service: hot queries keep their automata warm in the plan cache, and
// every request runs the cached plan's two linear scans.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"arb"
	"arb/internal/server"
)

const doc = `<inventory>
  <product sku="100"><name>bolt</name><stock>250</stock><flag>low</flag></product>
  <product sku="101"><name>nut</name><stock>900</stock></product>
  <product sku="102"><name>washer</name><flag>low</flag><stock>12</stock></product>
  <product sku="103"><name>screw</name><stock>47</stock></product>
  <order><item>100</item><item>103</item></order>
  <order><item>101</item></order>
</inventory>`

func main() {
	dir, err := os.MkdirTemp("", "arb-serve")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	base := filepath.Join(dir, "inventory")
	db, _, err := arb.CreateDB(base, strings.NewReader(doc))
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	sess := arb.NewDBSession(db)
	defer sess.Close()

	// Start: the server core plus a real HTTP listener on a random port.
	srv := server.New(context.Background(), sess, server.Config{})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	addr := "http://" + ln.Addr().String()
	fmt.Println("serving inventory over HTTP")

	// Query: four concurrent clients, two of them asking the same hot
	// query — the duplicate shares one cached plan.
	queries := []string{
		`QUERY :- Label[product];`,
		`xpath://product/name`,
		`xpath://product[not(flag)]`,
		`xpath://product/name`, // duplicate: plan-cache hit
	}
	type answer struct {
		Results []struct {
			Predicate string `json:"predicate"`
			Count     int64  `json:"count"`
		} `json:"results"`
		PlanCache string `json:"plan_cache"`
	}
	answers := make([]answer, len(queries))
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q string) {
			defer wg.Done()
			resp, err := http.Get(addr + "/query?q=" + url.QueryEscape(q))
			if err != nil {
				log.Fatal(err)
			}
			defer resp.Body.Close()
			if err := json.NewDecoder(resp.Body).Decode(&answers[i]); err != nil {
				log.Fatal(err)
			}
		}(i, q)
	}
	wg.Wait()
	for i, q := range queries {
		a := answers[i]
		fmt.Printf("%-34s -> %d nodes (plan cache %s)\n",
			q, a.Results[0].Count, a.PlanCache)
	}

	st := srv.Snapshot()
	fmt.Printf("served %d requests in %d execution(s), %d scan round(s); plan cache %d/%d hit\n",
		st.Requests, st.Profile.Queries, st.Profile.ScanRounds,
		st.PlanCache.Hits, st.PlanCache.Hits+st.PlanCache.Misses)

	// Drain: stop accepting, let in-flight work finish, shut the core.
	// The client's idle connections go first: one it dialed for a request
	// another connection then served never sent a request, and Shutdown
	// waits five seconds before it counts such a connection as idle.
	http.DefaultClient.CloseIdleConnections()
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("drained")
}
