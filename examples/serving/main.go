// Serving: a "popularity in your social circle" feature behind lonad. The
// example starts the serving subsystem in-process on a loopback port, then
// plays a realistic client session against the HTTP API:
//
//  1. a cold top-k query (the planner picks the algorithm),
//  2. the same query repeated — served from the generation-keyed cache,
//  3. a live relevance update batch (users gain/lose expertise),
//  4. the query again — the generation bump invalidated the cache, so the
//     answer is recomputed fresh and reflects the update,
//  5. the server's own metrics from /v1/stats.
//
// Run with:
//
//	go run ./examples/serving [-users 8000]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"time"

	lona "repro"
)

func main() {
	users := flag.Int("users", 8000, "number of users in the social network")
	flag.Parse()

	// A collaboration-shaped social network with mixture relevance: how
	// likely each user is a database expert (problem P1).
	g := lona.CollaborationNetwork(float64(*users)/40000, 4001)
	scores := lona.MixtureScores(g, 0.01, 4002)
	fmt.Printf("social network: %d users, %d friendships\n", g.NumNodes(), g.NumEdges())

	begin := time.Now()
	srv, err := lona.NewServer(g, scores, 2, lona.ServerOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server ready in %.2fs (indexes prepared, view materialized)\n\n", time.Since(begin).Seconds())

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() { _ = http.Serve(ln, srv.Handler()) }()
	base := "http://" + ln.Addr().String()
	fmt.Printf("lonad serving on %s\n\n", base)

	query := `{"k":5,"aggregate":"sum","algorithm":"auto"}`

	// 1. Cold query: nothing cached yet. "auto" answers a live SUM from the
	// materialized view the server maintains — one scan, no traversal (ask
	// "wsum" or "max" to watch the planner pick an engine algorithm).
	ans := postJSON(base+"/v1/topk", query)
	fmt.Printf("cold query:   %s chose %s (%.0fµs server-side)\n",
		mode(ans), ans["algorithm"], ans["elapsed_us"])
	printTop(ans)

	// 2. Repeat: same generation, served from the LRU cache.
	t0 := time.Now()
	ans = postJSON(base+"/v1/topk", query)
	fmt.Printf("repeat query: %s in %.0fµs round-trip — identical answer, no engine work\n\n",
		mode(ans), float64(time.Since(t0).Microseconds()))

	// 3. Live updates: the current #1's circle loses its top expert.
	top := ans["results"].([]any)[0].(map[string]any)
	node := int(top["node"].(float64))
	upd := postJSON(base+"/v1/scores",
		fmt.Sprintf(`{"updates":[{"node":%d,"score":0},{"node":%d,"score":1}]}`, node, (node+1)%g.NumNodes()))
	fmt.Printf("update batch: generation %v, %v aggregates repaired in %.0fµs\n",
		upd["generation"], upd["touched"], upd["elapsed_us"])

	// 4. Same query, new generation: the cache key changed, so the server
	// answers afresh — from the view the update batch just repaired.
	ans = postJSON(base+"/v1/topk", query)
	fmt.Printf("fresh query:  %s at generation %v — the update is visible\n", mode(ans), ans["generation"])
	printTop(ans)

	// 5. The server watches itself.
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		log.Fatal(err)
	}
	var stats struct {
		Cache struct {
			Hits    int     `json:"hits"`
			Misses  int     `json:"misses"`
			HitRate float64 `json:"hit_rate"`
		} `json:"cache"`
		Engine struct {
			Visited int `json:"visited"`
		} `json:"engine"`
	}
	decode(resp, &stats)
	fmt.Printf("stats: %d hits / %d misses (hit rate %.2f), %d neighborhood memberships visited in total\n",
		stats.Cache.Hits, stats.Cache.Misses, stats.Cache.HitRate, stats.Engine.Visited)
}

func postJSON(url, body string) map[string]any {
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		blob, _ := io.ReadAll(resp.Body)
		log.Fatalf("%s -> %d: %s", url, resp.StatusCode, blob)
	}
	var m map[string]any
	decode(resp, &m)
	return m
}

func decode(resp *http.Response, dst any) {
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		log.Fatal(err)
	}
}

func mode(ans map[string]any) string {
	if cached, _ := ans["cached"].(bool); cached {
		return "cache hit"
	}
	return "computed"
}

func printTop(ans map[string]any) {
	for i, r := range ans["results"].([]any) {
		res := r.(map[string]any)
		fmt.Printf("  #%d user %v — circle expertise %.4f\n", i+1, res["node"], res["value"])
	}
	fmt.Println()
}
