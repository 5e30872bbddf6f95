package serve

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sort"

	"mto/internal/engine"
)

// QueryRequest is the POST /query body: a tenant and one of its registered
// template IDs. Direct bypasses the serving path (admission, queue, cache)
// and executes on a fresh engine — the identity-verification hook load
// clients compare served responses against.
type QueryRequest struct {
	Tenant string `json:"tenant"`
	ID     string `json:"id"`
	Direct bool   `json:"direct,omitempty"`
}

// QueryResponse is the POST /query payload. Every field except Cached is a
// pure function of (tenant data, layout generation, query), so two
// responses for the same query at the same generation must be identical
// with Cached masked — the contract mtoload -verify checks over the wire.
type QueryResponse struct {
	Query         string         `json:"query"`
	Gen           uint64         `json:"gen"`
	Cached        bool           `json:"cached"`
	BlocksRead    int            `json:"blocks_read"`
	TotalBlocks   int            `json:"total_blocks"`
	SurvivingRows map[string]int `json:"surviving_rows"`
	// Aggregates are the canonical AggValue.String renderings in the
	// query's declaration order (value.Value strings are deterministic, so
	// this serialization is unambiguous).
	Aggregates []string `json:"aggregates,omitempty"`
	// Seconds round-trips exactly: Go marshals float64 as its shortest
	// uniquely-parsing decimal.
	Seconds float64        `json:"seconds"`
	Tables  map[string]int `json:"table_blocks"`
}

func payloadOf(res *engine.Result, gen uint64, cached bool) QueryResponse {
	qr := QueryResponse{
		Query:         res.Query,
		Gen:           gen,
		Cached:        cached,
		BlocksRead:    res.BlocksRead,
		TotalBlocks:   res.TotalBlocks,
		SurvivingRows: res.SurvivingRows,
		Seconds:       res.Seconds,
		Tables:        make(map[string]int, len(res.PerTable)),
	}
	for name, ta := range res.PerTable {
		qr.Tables[name] = ta.BlocksRead
	}
	for _, av := range res.Aggregates {
		qr.Aggregates = append(qr.Aggregates, av.String())
	}
	return qr
}

// Handler returns the server's HTTP mux: POST /query, GET /stats,
// GET /templates, GET /healthz. Shared by cmd/mtoserve and the tests, so
// the smoke job exercises exactly the production routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /templates", s.handleTemplates)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// maxQueryBody bounds a POST /query body: a tenant name and a template ID
// fit in it many times over.
const maxQueryBody = 64 << 10

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxQueryBody))
	err := dec.Decode(&req)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			err = nil
		} else if err == nil {
			err = errors.New("trailing data after the request object")
		}
	}
	if err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "bad request: "+err.Error(), code)
		return
	}
	q := s.Template(req.Tenant, req.ID)
	if q == nil {
		http.Error(w, "unknown tenant or query ID", http.StatusNotFound)
		return
	}
	if req.Direct {
		res, gen, err := s.ExecuteDirect(req.Tenant, q)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, http.StatusOK, payloadOf(res, gen, false))
		return
	}
	resp, err := s.Submit(r.Context(), req.Tenant, q)
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, payloadOf(resp.Result, resp.Gen, resp.Cached))
	case errors.Is(err, ErrRateLimited) || errors.Is(err, ErrOverloaded):
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.Is(err, ErrShuttingDown):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, ErrUnknownTenant) || errors.Is(err, ErrUnknownQuery):
		http.Error(w, err.Error(), http.StatusNotFound)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleTemplates(w http.ResponseWriter, r *http.Request) {
	out := map[string][]string{}
	names := s.Tenants()
	if t := r.URL.Query().Get("tenant"); t != "" {
		names = []string{t}
	}
	for _, name := range names {
		ids := s.TemplateIDs(name)
		if ids == nil {
			http.Error(w, "unknown tenant", http.StatusNotFound)
			return
		}
		sort.Strings(ids)
		out[name] = ids
	}
	writeJSON(w, http.StatusOK, out)
}

// handleHealthz reports 200 while serving and 503 once draining, so load
// balancers stop routing to an instance that is shutting down.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("ok\n"))
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
