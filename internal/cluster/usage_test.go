package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"repro/client"
)

// TestGatewayUsageMerge submits through the gateway under one client
// identity and checks the fleet /v1/usage view aggregates the backends'
// ledgers under that identity (the gateway stamps X-Episim-Client onto
// forwarded submissions).
func TestGatewayUsageMerge(t *testing.T) {
	tc := bootCluster(t, 2, Config{ProbeInterval: time.Hour})
	body := specBody(t, testSpec())

	for i := 0; i < 2; i++ {
		req, err := http.NewRequest(http.MethodPost, tc.gwURL+"/v1/sweeps", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Episim-Client", "tenant-gw")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var ack client.SubmitReply
		if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d", i, resp.StatusCode)
		}
		tc.waitDone(t, ack.ID)
	}

	var usage client.UsageReply
	mustGetJSON(t, tc.gwURL+"/v1/usage", &usage)
	if usage.Instance != "fleet" {
		t.Fatalf("usage instance = %q, want fleet", usage.Instance)
	}
	for _, u := range usage.Clients {
		if u.Client == "tenant-gw" {
			if u.Submissions != 2 {
				t.Fatalf("tenant-gw submissions = %d, want 2", u.Submissions)
			}
			if u.Cells != 2 { // one cell per sweep
				t.Fatalf("tenant-gw cells = %d, want 2", u.Cells)
			}
			return
		}
	}
	t.Fatalf("tenant-gw missing from fleet usage: %+v", usage.Clients)
}

func mustGetJSON(t *testing.T, url string, out any) {
	t.Helper()
	status, raw := getRaw(t, url)
	if status != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d: %s", url, status, raw)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}
