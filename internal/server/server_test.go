package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"hgs"
	"hgs/internal/graph"
	"hgs/internal/workload"
)

// testServer builds an in-memory store over a small synthetic history
// and serves it on an ephemeral port.
func testServer(t *testing.T, cfg Config) (*Server, *hgs.Store, string) {
	t.Helper()
	store, err := hgs.Open(hgs.Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { store.Close() })
	events := workload.Wikipedia(workload.WikiConfig{Nodes: 300, EdgesPerNode: 3, Seed: 11})
	if err := store.Load(events); err != nil {
		t.Fatalf("load: %v", err)
	}
	srv := New(store, cfg)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, store, addr
}

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	scn := bufio.NewScanner(resp.Body)
	scn.Buffer(make([]byte, 64<<10), 8<<20)
	for scn.Scan() {
		sb.WriteString(scn.Text())
		sb.WriteString("\n")
	}
	return resp, sb.String()
}

func TestStatusMapping(t *testing.T) {
	_, store, addr := testServer(t, Config{})
	first, last, err := store.TimeRange()
	if err != nil {
		t.Fatalf("time range: %v", err)
	}
	mid := (first + last) / 2

	cases := []struct {
		name string
		url  string
		want int
	}{
		{"ok", fmt.Sprintf("http://%s/v1/node?id=0&t=%d", addr, mid), http.StatusOK},
		{"missing-param", fmt.Sprintf("http://%s/v1/node?id=0", addr), http.StatusBadRequest},
		{"bad-param", fmt.Sprintf("http://%s/v1/node?id=zap&t=%d", addr, mid), http.StatusBadRequest},
		{"bad-timeout", fmt.Sprintf("http://%s/v1/node?id=0&t=%d&timeout=never", addr, mid), http.StatusBadRequest},
		{"node-not-found", fmt.Sprintf("http://%s/v1/node?id=999999&t=%d", addr, mid), http.StatusNotFound},
		{"out-of-range", fmt.Sprintf("http://%s/v1/node?id=0&t=%d", addr, last+10_000), http.StatusRequestedRangeNotSatisfiable},
		{"deadline", fmt.Sprintf("http://%s/v1/snapshot?t=%d&timeout=1ns", addr, mid), http.StatusGatewayTimeout},
		{"khop-not-found", fmt.Sprintf("http://%s/v1/khop?id=999999&t=%d", addr, mid), http.StatusNotFound},
		{"timerange", fmt.Sprintf("http://%s/v1/timerange", addr), http.StatusOK},
		{"stats", fmt.Sprintf("http://%s/v1/stats", addr), http.StatusOK},
		{"append-get", fmt.Sprintf("http://%s/v1/append", addr), http.StatusMethodNotAllowed},
		{"metrics", fmt.Sprintf("http://%s/metrics", addr), http.StatusOK},
	}
	for _, tc := range cases {
		resp, body := get(t, tc.url)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: got %d want %d (body %.120s)", tc.name, resp.StatusCode, tc.want, body)
		}
	}
}

func TestClosedStoreMapsTo503(t *testing.T) {
	_, store, addr := testServer(t, Config{})
	if err := store.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	resp, _ := get(t, fmt.Sprintf("http://%s/v1/node?id=0&t=50", addr))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query after Close: got %d want 503", resp.StatusCode)
	}
}

// TestSnapshotStreamsAllRows checks the NDJSON snapshot against the
// in-process retrieval: same node count, one valid JSON row per line,
// and each row's attrs and edges those of the node in the snapshot.
func TestSnapshotStreamsAllRows(t *testing.T) {
	_, store, addr := testServer(t, Config{})
	_, loaded, _ := store.TimeRange()
	last := appendOddNodes(t, addr, loaded)
	g, err := store.Snapshot(last)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	resp, body := get(t, fmt.Sprintf("http://%s/v1/snapshot?t=%d", addr, last))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot endpoint: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatalf("no streamed rows")
	}
	if len(lines) != g.NumNodes() {
		t.Fatalf("streamed %d rows, snapshot has %d nodes", len(lines), g.NumNodes())
	}
	seen := make(map[hgs.NodeID]bool)
	for _, ln := range lines {
		var row NodeJSON
		if err := json.Unmarshal([]byte(ln), &row); err != nil {
			t.Fatalf("bad NDJSON row %q: %v", ln, err)
		}
		if seen[row.ID] {
			t.Fatalf("node %d emitted twice", row.ID)
		}
		seen[row.ID] = true
		ns := g.Node(row.ID)
		if ns == nil {
			t.Fatalf("streamed node %d not in snapshot", row.ID)
		}
		if !sameAttrs(row.Attrs, ns.Attrs) {
			t.Fatalf("node %d attrs: streamed %v, snapshot %v", row.ID, row.Attrs, ns.Attrs)
		}
		if len(row.Edges) != len(ns.Edges) {
			t.Fatalf("node %d: streamed %d edges, snapshot %d", row.ID, len(row.Edges), len(ns.Edges))
		}
		for _, e := range row.Edges {
			es, ok := ns.Edges[graph.EdgeKey{Other: e.Other, Out: e.Out}]
			if !ok {
				t.Fatalf("node %d: streamed edge %+v not in snapshot", row.ID, e)
			}
			var want hgs.Attrs
			if es != nil {
				want = es.Attrs
			}
			if !sameAttrs(e.Attrs, want) {
				t.Fatalf("node %d edge %+v: snapshot attrs %v", row.ID, e, want)
			}
		}
	}
}

// sameAttrs compares attrs as the wire carries them: nil and empty are
// both an omitted field.
func sameAttrs(a, b hgs.Attrs) bool {
	return len(a) == len(b) && (len(a) == 0 || maps.Equal(a, b))
}

// oddAttrs are attr values and keys JSON escapes or writes as non-ASCII.
var oddAttrs = []string{"<b>&amp;</b>", `quote " and \ slash`, "ctl \u0001\t", "line\u2028sep\u2029", "café ključ", "😀"}

// appendOddNodes appends, through /v1/append after last, nodes 90001
// and -90002 with oddAttrs in their attr keys and values, edges between
// them both ways, a self-loop and an edge into the loaded graph, two of
// the edges with attrs. It returns the time of the last event.
func appendOddNodes(t *testing.T, addr string, last hgs.Time) hgs.Time {
	t.Helper()
	str := func(v string) string { return string(mustMarshal(t, v)) }
	var evs []string
	tt := last
	add := func(format string, args ...any) {
		tt++
		evs = append(evs, fmt.Sprintf(`{"time":%d,`, tt)+fmt.Sprintf(format, args...))
	}
	add(`"kind":"add-node","node":90001}`)
	add(`"kind":"add-node","node":-90002}`)
	for i, v := range oddAttrs {
		add(`"kind":"set-node-attr","node":90001,"key":"k<%d>","value":%s}`, i, str(v))
		add(`"kind":"set-node-attr","node":-90002,"key":%s,"value":"v&%d"}`, str(v), i)
	}
	add(`"kind":"add-edge","node":90001,"other":-90002}`)
	add(`"kind":"add-edge","node":-90002,"other":90001}`)
	add(`"kind":"add-edge","node":90001,"other":90001}`)
	add(`"kind":"add-edge","node":90001,"other":0}`)
	add(`"kind":"set-edge-attr","node":90001,"other":-90002,"key":"w>","value":%s}`, str(oddAttrs[0]))
	add(`"kind":"set-edge-attr","node":90001,"other":90001,"key":%s,"value":"self"}`, str(oddAttrs[3]))
	resp, err := http.Post(fmt.Sprintf("http://%s/v1/append", addr), "application/json",
		strings.NewReader(`{"events":[`+strings.Join(evs, ",")+`]}`))
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append: status %d", resp.StatusCode)
	}
	return tt
}

// TestNodeShapedBodiesMatchEncodingJSON checks that every body holding
// node rows is, byte for byte, what encoding/json renders for the
// reflection-path shapes — on nodes whose attrs, appended through
// /v1/append, hold characters JSON escapes.
func TestNodeShapedBodiesMatchEncodingJSON(t *testing.T) {
	_, store, addr := testServer(t, Config{})
	_, last, _ := store.TimeRange()
	tt := appendOddNodes(t, addr, last)

	encode := func(v any) string {
		var sb strings.Builder
		if err := json.NewEncoder(&sb).Encode(v); err != nil {
			t.Fatalf("encode: %v", err)
		}
		return sb.String()
	}
	body := func(path string) string {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, %v", path, resp.StatusCode, err)
		}
		return string(b)
	}
	check := func(path, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s:\n got %s\nwant %s", path, got, want)
		}
	}
	for _, id := range []hgs.NodeID{90001, -90002} {
		ns, err := store.Node(id, tt)
		if err != nil {
			t.Fatalf("node %d: %v", id, err)
		}
		if len(ns.Attrs) != len(oddAttrs) {
			t.Fatalf("node %d: %d attrs, want %d", id, len(ns.Attrs), len(oddAttrs))
		}
		path := fmt.Sprintf("/v1/node?id=%d&t=%d", id, tt)
		check(path, body(path), encode(refNodeJSON(ns)))

		g, err := store.KHop(id, 1, tt)
		if err != nil {
			t.Fatalf("khop %d: %v", id, err)
		}
		path = fmt.Sprintf("/v1/khop?id=%d&k=1&t=%d", id, tt)
		check(path, body(path), encode(refGraphJSON(g)))

		// History from just after the last event: the header carries
		// the whole state as its initial.
		h, err := store.NodeHistory(id, tt+1, tt+5)
		if err != nil || h.Initial == nil {
			t.Fatalf("history %d: %v, initial %v", id, err, h)
		}
		path = fmt.Sprintf("/v1/node/history?id=%d&ts=%d&te=%d", id, tt+1, tt+5)
		head, _, _ := strings.Cut(body(path), "\n")
		check(path, head+"\n", encode(map[string]any{"initial": refNodeJSON(h.Initial), "events": len(h.Events)}))

		sh, err := store.KHopHistory(id, 1, last, tt+1)
		if err != nil {
			t.Fatalf("khop history %d: %v", id, err)
		}
		evs := make([]EventJSON, 0, len(sh.Events))
		for _, e := range sh.Events {
			evs = append(evs, eventJSON(e))
		}
		path = fmt.Sprintf("/v1/khop/history?id=%d&k=1&ts=%d&te=%d", id, last, tt+1)
		check(path, body(path), encode(map[string]any{
			"root": sh.Root, "k": sh.K, "interval": sh.Interval, "members": sh.Members,
			"initial": refGraphJSON(sh.Initial), "events": evs,
		}))
	}
	// The header of a history whose node has no initial state.
	h, err := store.NodeHistory(90001, last, tt+1)
	if err != nil || h.Initial != nil {
		t.Fatalf("history from before the node: %v, initial %v", err, h)
	}
	path := fmt.Sprintf("/v1/node/history?id=90001&ts=%d&te=%d", last, tt+1)
	head, _, _ := strings.Cut(body(path), "\n")
	check(path, head+"\n", encode(map[string]any{"initial": nil, "events": len(h.Events)}))
}

// TestShedding fills every in-flight slot directly and checks the next
// request is rejected with 429 without touching the store.
func TestShedding(t *testing.T) {
	srv, store, addr := testServer(t, Config{MaxInFlight: 2})
	srv.sem <- struct{}{}
	srv.sem <- struct{}{}
	defer func() { <-srv.sem; <-srv.sem }()
	resp, body := get(t, fmt.Sprintf("http://%s/v1/timerange", addr))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full limiter: got %d want 429 (body %s)", resp.StatusCode, body)
	}
	var m strings.Builder
	if err := store.WriteMetrics(&m); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m.String(), "\nhgs_server_shed_total 1\n") {
		t.Fatalf("shed counter not incremented:\n%s", m.String())
	}
}

// TestConcurrentClients drives the server with more clients than
// in-flight slots: every request must finish with a sanctioned status
// and at least one must be shed.
func TestConcurrentClients(t *testing.T) {
	_, store, addr := testServer(t, Config{MaxInFlight: 2})
	_, last, _ := store.TimeRange()
	const clients, per = 8, 30
	var wg sync.WaitGroup
	codes := make(chan int, clients*per)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				resp, err := http.Get(fmt.Sprintf("http://%s/v1/snapshot?t=%d", addr, last))
				if err != nil {
					codes <- -1
					continue
				}
				scn := bufio.NewScanner(resp.Body)
				scn.Buffer(make([]byte, 64<<10), 8<<20)
				for scn.Scan() {
				}
				resp.Body.Close()
				codes <- resp.StatusCode
			}
		}()
	}
	wg.Wait()
	close(codes)
	var ok, shed int
	for code := range codes {
		switch code {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Fatalf("unexpected status %d", code)
		}
	}
	if ok == 0 {
		t.Fatalf("no request succeeded")
	}
	if shed == 0 {
		t.Fatalf("no request shed with %d clients over 2 slots", clients)
	}
}

func TestAppendAndHistory(t *testing.T) {
	_, store, addr := testServer(t, Config{})
	_, last, _ := store.TimeRange()
	body := fmt.Sprintf(`{"events":[
		{"time":%d,"kind":"add-node","node":77777},
		{"time":%d,"kind":"set-node-attr","node":77777,"key":"name","value":"late"},
		{"time":%d,"kind":"add-edge","node":77777,"other":0}]}`,
		last+1, last+2, last+3)
	resp, err := http.Post(fmt.Sprintf("http://%s/v1/append", addr), "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append: status %d", resp.StatusCode)
	}
	// The appended node is queryable through the API.
	r2, out := get(t, fmt.Sprintf("http://%s/v1/node?id=77777&t=%d", addr, last+3))
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("node after append: %d", r2.StatusCode)
	}
	if !strings.Contains(out, `"name":"late"`) {
		t.Fatalf("appended attr missing: %s", out)
	}
	r3, hist := get(t, fmt.Sprintf("http://%s/v1/node/history?id=77777&ts=%d&te=%d", addr, last, last+10))
	if r3.StatusCode != http.StatusOK {
		t.Fatalf("history after append: %d", r3.StatusCode)
	}
	if got := strings.Count(hist, "\n"); got != 4 { // header line + 3 events
		t.Fatalf("history lines: got %d want 4 (%s)", got, hist)
	}
	// The store handle agrees with what HTTP served.
	times, err := store.ChangeTimes(77777, last, last+10)
	if err != nil || len(times) != 3 {
		t.Fatalf("ChangeTimes after append: %v %v", times, err)
	}
	// Unknown kinds are rejected before touching the store.
	bad, err := http.Post(fmt.Sprintf("http://%s/v1/append", addr), "application/json",
		strings.NewReader(`{"events":[{"time":1,"kind":"explode","node":1}]}`))
	if err != nil {
		t.Fatalf("bad append: %v", err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown kind: got %d want 400", bad.StatusCode)
	}
}

func TestAppendBodyLimit(t *testing.T) {
	_, store, addr := testServer(t, Config{})
	_, last, _ := store.TimeRange()
	url := fmt.Sprintf("http://%s/v1/append", addr)
	event := fmt.Sprintf(`{"time":%d,"kind":"add-node","node":88888}`, last+1)

	// A well-formed batch that is only too large: refused whole.
	var big strings.Builder
	big.WriteString(`{"events":[` + event)
	for big.Len() <= maxAppendBody {
		big.WriteString("," + event)
	}
	big.WriteString("]}")
	resp, err := http.Post(url, "application/json", strings.NewReader(big.String()))
	if err != nil {
		t.Fatalf("oversized append: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized append: got %d want 413", resp.StatusCode)
	}
	if _, now, _ := store.TimeRange(); now != last {
		t.Fatalf("refused body still appended: history end %d -> %d", last, now)
	}
	// The store is not wedged: the same event in a small body lands.
	resp, err = http.Post(url, "application/json", strings.NewReader(`{"events":[`+event+`]}`))
	if err != nil {
		t.Fatalf("append after refusal: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append after refusal: status %d", resp.StatusCode)
	}
	if r, _ := get(t, fmt.Sprintf("http://%s/v1/node?id=88888&t=%d", addr, last+1)); r.StatusCode != http.StatusOK {
		t.Fatalf("node appended after refusal: %d", r.StatusCode)
	}
}

func TestChangeTimesAndAnalytics(t *testing.T) {
	_, store, addr := testServer(t, Config{})
	first, last, _ := store.TimeRange()
	resp, body := get(t, fmt.Sprintf("http://%s/v1/node/changetimes?id=0&ts=%d&te=%d", addr, first, last+1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("changetimes: %d", resp.StatusCode)
	}
	var times []hgs.Time
	if err := json.Unmarshal([]byte(strings.TrimSpace(body)), &times); err != nil {
		t.Fatalf("changetimes body: %v", err)
	}
	resp2, body2 := get(t, fmt.Sprintf("http://%s/v1/analytics/top-changers?ts=%d&te=%d&limit=5", addr, first, last+1))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("top-changers: %d", resp2.StatusCode)
	}
	var rows []struct {
		ID      hgs.NodeID `json:"id"`
		Changes int        `json:"changes"`
	}
	if err := json.Unmarshal([]byte(strings.TrimSpace(body2)), &rows); err != nil {
		t.Fatalf("top-changers body: %v", err)
	}
	if len(rows) == 0 || len(rows) > 5 {
		t.Fatalf("top-changers rows: %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Changes > rows[i-1].Changes {
			t.Fatalf("top-changers not sorted: %v", rows)
		}
	}
}

// TestAdminTopologyEndpoints drives the topology admin surface over
// HTTP: inspect, fail/revive (degraded queries must still answer), a
// live node add with rebalance wait, and the sentinel status mapping.
func TestAdminTopologyEndpoints(t *testing.T) {
	store, err := hgs.Open(hgs.Options{Machines: 3, Replication: 2})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { store.Close() })
	events := workload.Wikipedia(workload.WikiConfig{Nodes: 300, EdgesPerNode: 3, Seed: 11})
	if err := store.Load(events); err != nil {
		t.Fatalf("load: %v", err)
	}
	srv := New(store, Config{})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	post := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Post(fmt.Sprintf("http://%s%s", addr, path), "", nil)
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		scn := bufio.NewScanner(resp.Body)
		for scn.Scan() {
			sb.WriteString(scn.Text())
		}
		return resp, sb.String()
	}

	resp, body := get(t, fmt.Sprintf("http://%s/admin/topology", addr))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("topology: %d %s", resp.StatusCode, body)
	}
	var info hgs.TopologyInfo
	if err := json.Unmarshal([]byte(strings.TrimSpace(body)), &info); err != nil {
		t.Fatalf("topology body: %v", err)
	}
	if len(info.Nodes) != 3 || info.Replication != 2 || info.UnderReplicated != 0 {
		t.Fatalf("topology: %+v", info)
	}

	if resp, body := post("/admin/node/fail?id=1"); resp.StatusCode != http.StatusOK {
		t.Fatalf("fail: %d %s", resp.StatusCode, body)
	}
	_, last, _ := store.TimeRange()
	if resp, _ := get(t, fmt.Sprintf("http://%s/v1/node?id=0&t=%d", addr, last)); resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded query: %d", resp.StatusCode)
	}
	resp, body = get(t, fmt.Sprintf("http://%s/admin/topology", addr))
	if err := json.Unmarshal([]byte(strings.TrimSpace(body)), &info); err != nil {
		t.Fatalf("topology body: %v", err)
	}
	if !info.Nodes[1].Down || info.UnderReplicated == 0 {
		t.Fatalf("topology after fail: %+v", info)
	}
	if resp, body := post("/admin/node/revive?id=1"); resp.StatusCode != http.StatusOK {
		t.Fatalf("revive: %d %s", resp.StatusCode, body)
	}

	if resp, body := post("/admin/node/add?id=3"); resp.StatusCode != http.StatusOK {
		t.Fatalf("add: %d %s", resp.StatusCode, body)
	}
	if resp, body := post("/admin/rebalance/wait?timeout=30s"); resp.StatusCode != http.StatusOK {
		t.Fatalf("rebalance wait: %d %s", resp.StatusCode, body)
	}
	resp, body = get(t, fmt.Sprintf("http://%s/admin/topology", addr))
	if err := json.Unmarshal([]byte(strings.TrimSpace(body)), &info); err != nil {
		t.Fatalf("topology body: %v", err)
	}
	if len(info.Nodes) != 4 {
		t.Fatalf("topology after add: %+v", info)
	}
	if resp, _ := get(t, fmt.Sprintf("http://%s/v1/node?id=0&t=%d", addr, last)); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-rebalance query: %d", resp.StatusCode)
	}

	// Sentinel mapping.
	if resp, _ := post("/admin/node/fail?id=99"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("fail unknown: %d", resp.StatusCode)
	}
	if resp, _ := post("/admin/node/add?id=0"); resp.StatusCode != http.StatusConflict {
		t.Fatalf("add duplicate: %d", resp.StatusCode)
	}
	if resp, _ := get(t, fmt.Sprintf("http://%s/admin/node/add?id=9", addr)); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET add: %d", resp.StatusCode)
	}
}
