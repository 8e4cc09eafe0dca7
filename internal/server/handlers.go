package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// Handler returns the server's HTTP API as a standard http.Handler, ready
// for http.Server or httptest.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/topk", s.handleTopK)
	mux.HandleFunc("/v1/scores", s.handleScores)
	mux.HandleFunc("/v1/edges", s.handleEdges)
	mux.HandleFunc("/v1/catchup", s.handleCatchUp)
	mux.HandleFunc("/v1/snapshot", s.handleSnapshot)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/health", s.handleHealth)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// errorBody is every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(body) // the connection is the only failure mode here
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// decodeBody strictly decodes one JSON object into dst.
func decodeBody(w http.ResponseWriter, r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("invalid request body: %w", err)
	}
	return nil
}

func requirePost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, errors.New("use POST"))
		return false
	}
	return true
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	var req QueryRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// r.Context() is cancelled when the client disconnects (and when the
	// daemon's drain deadline passes during shutdown); Run tightens it
	// with the request's timeout_ms.
	ans, err := s.Run(r.Context(), req)
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, ans)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, err)
	case errors.Is(err, context.Canceled) && shuttingDown(r.Context()):
		// The server abandoned the query at its drain deadline; the client
		// may well still be connected and deserves a retryable status.
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, context.Canceled):
		// The client is gone; nothing useful can be written. Surface a
		// status anyway for intermediaries that are still listening.
		writeError(w, statusClientClosedRequest, err)
	default:
		writeError(w, http.StatusBadRequest, err)
	}
}

// statusClientClosedRequest is nginx's de-facto standard 499 for requests
// abandoned by the client; net/http has no named constant for it.
const statusClientClosedRequest = 499

// shutdownKey marks contexts whose cancellation means "the server is
// draining", not "the client went away".
type shutdownKey struct{}

// MarkShutdown returns a context whose descendants report server-initiated
// cancellation through the probe. A daemon passes the result as its
// http.Server BaseContext and flips the probe to true before cancelling
// in-flight requests at its drain deadline, so those queries fail 503
// (retryable) rather than 499 (client abandoned).
func MarkShutdown(ctx context.Context, drained func() bool) context.Context {
	return context.WithValue(ctx, shutdownKey{}, drained)
}

// shuttingDown reports whether ctx descends from MarkShutdown with the
// probe now true.
func shuttingDown(ctx context.Context) bool {
	probe, _ := ctx.Value(shutdownKey{}).(func() bool)
	return probe != nil && probe()
}

// scoresRequest is the /v1/scores body.
type scoresRequest struct {
	Updates []ScoreUpdate `json:"updates"`
}

func (s *Server) handleScores(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	var req scoresRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	res, err := s.ApplyUpdates(req.Updates)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// edgesRequest is the /v1/edges body, mirroring /v1/scores: a batch of
// structural edits applied atomically.
type edgesRequest struct {
	Edits []EditRequest `json:"edits"`
}

func (s *Server) handleEdges(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	var req edgesRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	res, err := s.ApplyEdits(req.Edits)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// healthBody is the /v1/health response. Status is "ok", or "degraded"
// when a configured SLO's error budget is burning faster than it refills
// — the 200→503 signal load balancers shift traffic on.
type healthBody struct {
	OK         bool      `json:"ok"`
	Status     string    `json:"status"`
	Nodes      int       `json:"nodes"`
	Edges      int       `json:"edges"`
	H          int       `json:"h"`
	Directed   bool      `json:"directed"`
	View       bool      `json:"view"`             // materialized view present (undirected graphs)
	Shards     int       `json:"shards,omitempty"` // >1 when queries fan out across shards
	Generation uint64    `json:"generation"`
	SLO        *SLOStats `json:"slo,omitempty"` // present when an SLO is configured
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	g := s.engine.Graph()
	body := healthBody{
		OK: true, Status: "ok", Nodes: g.NumNodes(), Edges: g.NumEdges(), H: s.engine.H(),
		Directed: g.Directed(), View: s.view != nil, Generation: s.gen,
	}
	if s.cl != nil {
		body.Shards = s.cl.shards
	}
	s.mu.RUnlock()
	status := http.StatusOK
	if slo := s.sloStats(); slo != nil {
		body.SLO = slo
		if slo.Burning {
			// The process is alive (OK stays true) but violating its
			// latency objective right now; 503 tells load balancers to
			// prefer a healthier replica until the window recovers.
			body.Status = "degraded"
			status = http.StatusServiceUnavailable
		}
	}
	writeJSON(w, status, body)
}
