package dashboard

// Embedded-UI smoke tests: the go:embed asset tree must serve the page and
// its scripts, and /dash/api/config must echo the mount configuration the
// page bootstraps from.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestMountServesEmbeddedAssets(t *testing.T) {
	mux := http.NewServeMux()
	Mount(mux, Config{})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) (int, string, http.Header) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body), resp.Header
	}

	code, body, _ := get(Prefix + "/")
	if code != http.StatusOK {
		t.Fatalf("/dash/ status %d", code)
	}
	for _, want := range []string{"<!doctype html>", "app.js", "style.css"} {
		if !strings.Contains(strings.ToLower(body), want) {
			t.Fatalf("index missing %q:\n%.300s", want, body)
		}
	}
	code, body, hdr := get(Prefix + "/app.js")
	if code != http.StatusOK || len(body) == 0 {
		t.Fatalf("/dash/app.js status %d, %d bytes", code, len(body))
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "javascript") {
		t.Fatalf("app.js Content-Type %q", ct)
	}
	if code, _, _ := get(Prefix + "/style.css"); code != http.StatusOK {
		t.Fatalf("/dash/style.css status %d", code)
	}
	if code, _, _ := get(Prefix + "/nope.js"); code != http.StatusNotFound {
		t.Fatalf("missing asset status %d, want 404", code)
	}
}

func TestConfigEndpoint(t *testing.T) {
	mux := http.NewServeMux()
	Mount(mux, Config{
		Federations: []string{"/forensics/alpha", "/forensics/beta"},
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, err := http.Get(srv.URL + Prefix + "/api/config")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("Cache-Control %q, want no-store", cc)
	}
	var got Config
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Title != "fl operator dashboard" {
		t.Fatalf("default title %q", got.Title)
	}
	if len(got.Federations) != 2 || got.Replay {
		t.Fatalf("config round trip = %+v", got)
	}
}

// TestConfigFederationsNeverNull pins the page contract: the JS boots with
// cfg.federations.map(...), so an empty list must serialize as [] not null.
func TestConfigFederationsNeverNull(t *testing.T) {
	mux := http.NewServeMux()
	Mount(mux, Config{})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	resp, err := http.Get(srv.URL + Prefix + "/api/config")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if strings.Contains(string(body), `"federations":null`) {
		t.Fatalf("federations serialized as null: %s", body)
	}
	if !strings.Contains(string(body), `"federations":[]`) {
		t.Fatalf("federations missing from config: %s", body)
	}
}
