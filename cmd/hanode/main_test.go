package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fragdb/internal/deploy"
)

// TestServeTx drives POST /tx on a one-node cluster: a good operation
// commits; a malformed one is the client's fault (400); a body beyond
// the cap is refused before it is buffered (413); and once the node has
// stopped, a well-formed operation is the server's unavailability
// (503), not a bad request.
func TestServeTx(t *testing.T) {
	node, err := deploy.NewTCP(deploy.Config{ID: 0, Addrs: []string{"127.0.0.1:0"}})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { serveTx(w, r, node) }))
	defer srv.Close()

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := srv.Client().Post(srv.URL, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	resp := post(`{"kind":"bump","amount":1}`)
	var out txResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK || !out.Committed {
		t.Fatalf("good op: status %d, reply %+v, err %v", resp.StatusCode, out, err)
	}
	for _, c := range []struct {
		name, body string
		status     int
	}{
		{"truncated JSON", `{"kind":`, http.StatusBadRequest},
		{"unknown kind", `{"kind":"steal"}`, http.StatusBadRequest},
		{"oversized body", `{"kind":"enqueue","item":"` + strings.Repeat("x", maxTxBody) + `"}`, http.StatusRequestEntityTooLarge},
	} {
		if got := post(c.body).StatusCode; got != c.status {
			t.Errorf("%s: status %d, want %d", c.name, got, c.status)
		}
	}

	node.Close()
	if got := post(`{"kind":"bump","amount":1}`).StatusCode; got != http.StatusServiceUnavailable {
		t.Errorf("stopped node: status %d, want %d", got, http.StatusServiceUnavailable)
	}
}
