package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"
)

func postQuery(t *testing.T, url string, req QueryRequest) (int, QueryResponse) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr QueryResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, qr
}

// TestHTTPRoundTrip: the HTTP surface serves queries whose payloads are
// identical to direct execution (the mtoload -verify contract), lists
// templates, reports stats, and answers health checks.
func TestHTTPRoundTrip(t *testing.T) {
	cfg, _ := serveScenario(t, "alpha", 4, false)
	s := startServer(t, Config{Tenants: []TenantConfig{cfg}, Workers: 2})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	// Templates listing.
	resp, err := http.Get(hs.URL + "/templates?tenant=alpha")
	if err != nil {
		t.Fatal(err)
	}
	var templates map[string][]string
	if err := json.NewDecoder(resp.Body).Decode(&templates); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(templates["alpha"]) != len(cfg.Templates) {
		t.Fatalf("templates = %v", templates)
	}

	for _, id := range templates["alpha"] {
		code, served := postQuery(t, hs.URL, QueryRequest{Tenant: "alpha", ID: id})
		if code != http.StatusOK {
			t.Fatalf("%s: status %d", id, code)
		}
		code, direct := postQuery(t, hs.URL, QueryRequest{Tenant: "alpha", ID: id, Direct: true})
		if code != http.StatusOK {
			t.Fatalf("%s direct: status %d", id, code)
		}
		if served.Gen != direct.Gen {
			t.Fatalf("%s: generation moved mid-test", id)
		}
		served.Cached = false // the one legitimate difference
		if !reflect.DeepEqual(served, direct) {
			t.Errorf("%s: served payload differs from direct:\n%+v\n%+v", id, served, direct)
		}
		// Repeat must hit the cache and still match.
		code, repeat := postQuery(t, hs.URL, QueryRequest{Tenant: "alpha", ID: id})
		if code != http.StatusOK || !repeat.Cached {
			t.Fatalf("%s: repeat not served from cache (status %d)", id, code)
		}
		repeat.Cached = false
		if !reflect.DeepEqual(repeat, direct) {
			t.Errorf("%s: cached payload differs from direct:\n%+v\n%+v", id, repeat, direct)
		}
	}

	// Unknown tenant/ID → 404.
	if code, _ := postQuery(t, hs.URL, QueryRequest{Tenant: "nope", ID: "d0"}); code != http.StatusNotFound {
		t.Errorf("unknown tenant: status %d", code)
	}

	// Stats reflect the traffic.
	resp, err = http.Get(hs.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var st ServerStats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Completed == 0 || st.Cache.Hits == 0 || len(st.Tenants) != 1 {
		t.Errorf("stats not populated: %+v", st)
	}
	// The operator sees each tenant's engine counters, the row-order
	// fold pass's row count among them.
	if !bytes.Contains(body, []byte(`"materialized_fold_rows":`)) {
		t.Errorf("stats lack the engine's materialized_fold_rows: %s", body)
	}

	// Healthy while serving.
	resp, err = http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d while serving", resp.StatusCode)
	}
}

// TestHTTPDraining: during and after graceful shutdown the HTTP surface
// rejects queries with 503 and healthz reports draining.
func TestHTTPDraining(t *testing.T) {
	cfg, _ := serveScenario(t, "alpha", 4, false)
	s, err := New(Config{Tenants: []TenantConfig{cfg}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if code, _ := postQuery(t, hs.URL, QueryRequest{Tenant: "alpha", ID: "d0"}); code != http.StatusServiceUnavailable {
		t.Errorf("query during drain: status %d, want 503", code)
	}
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz = %d while draining, want 503", resp.StatusCode)
	}
}
