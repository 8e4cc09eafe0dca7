package main

import (
	"context"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	lona "repro"
)

// TestConfigValidation: the shard flag combinations that cannot work are
// rejected before any dataset is built — each with an error naming the
// flags at fault (a bare config would fail anyway, for lack of a dataset).
func TestConfigValidation(t *testing.T) {
	bad := []struct {
		cfg  config
		want []string
	}{
		{config{shards: 0}, []string{"-shards"}},
		{config{shards: 2, shardWorker: true, shardIndex: 2}, []string{"-shard-index"}},
		{config{shards: 2, shardWorker: true, shardIndex: -1}, []string{"-shard-index"}},
		{config{shards: 2, shardWorker: true, shardPeers: "http://x"}, []string{"-shard-worker", "-shard-peers"}},
		{config{shards: 2, shardPeers: "http://x"}, []string{"-shards", "-shard-peers"}},
	}
	for i, tc := range bad {
		err := run(tc.cfg)
		if err == nil {
			t.Fatalf("case %d: invalid config %+v accepted", i, tc.cfg)
		}
		for _, flag := range tc.want {
			if !strings.Contains(err.Error(), flag) {
				t.Fatalf("case %d: error %q does not name %s", i, err, flag)
			}
		}
	}
}

// TestPeerList: the -shard-peers splitter trims and drops empties.
func TestPeerList(t *testing.T) {
	c := config{shardPeers: " http://a:1 , ,http://b:2,"}
	got := c.peerList()
	if len(got) != 2 || got[0] != "http://a:1" || got[1] != "http://b:2" {
		t.Fatalf("peerList = %v", got)
	}
	if got := (config{}).peerList(); got != nil {
		t.Fatalf("empty peers parsed as %v", got)
	}
}

// TestShardedDaemonPipeline stands up the full two-process topology in
// miniature: two shard-worker daemons (the handlers lonad -shard-worker
// mounts) behind serveUntilDone, plus a coordinator Server dialing them —
// and cross-checks a query against an unsharded server over the same
// deterministic dataset.
func TestShardedDaemonPipeline(t *testing.T) {
	const parts = 2
	g := lona.CollaborationNetwork(0.05, 42)
	scores := lona.MixtureScores(g, 0.01, 43)

	var peers []string
	for i := 0; i < parts; i++ {
		handler, err := lona.NewShardWorkerHandler(g, scores, 2, parts, i)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		logger := slog.New(slog.NewTextHandler(io.Discard, nil))
		go func() { done <- serveUntilDone(ctx, logger, handler, ln, time.Second) }()
		t.Cleanup(func() {
			cancel()
			<-done
		})
		peers = append(peers, "http://"+ln.Addr().String())
	}

	coord, err := lona.NewServer(g, scores, 2, lona.ServerOptions{SkipIndexes: true, ShardWorkers: peers})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := lona.NewServer(g, scores, 2, lona.ServerOptions{SkipIndexes: true})
	if err != nil {
		t.Fatal(err)
	}

	req := lona.ServerQueryRequest{K: 25, Aggregate: "sum", Algorithm: "base"}
	want, err := plain.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("coordinator returned %d results, want %d", len(got.Results), len(want.Results))
	}
	for i := range want.Results {
		if got.Results[i] != want.Results[i] {
			t.Fatalf("result %d: %+v != %+v", i, got.Results[i], want.Results[i])
		}
	}
	if got.Shards != parts {
		t.Fatalf("answer reports %d shards, want %d", got.Shards, parts)
	}

	// The worker daemons answer their health endpoint directly too.
	resp, err := http.Get(peers[0] + "/v1/shard/health")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(blob), `"shard":0`) {
		t.Fatalf("worker health answered %d: %s", resp.StatusCode, blob)
	}
}
