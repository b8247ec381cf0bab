package top

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
)

// Stream connects to baseURL's /metrics/stream SSE endpoint and invokes
// fn for every metrics frame until ctx is cancelled, the server closes
// the stream, or fn returns an error (which Stream returns verbatim).
// Frames that fail to decode are skipped — a live dashboard should ride
// out one mangled frame, not die on it.
func Stream(ctx context.Context, baseURL string, interval time.Duration, fn func(obs.Snapshot) error) error {
	u := strings.TrimRight(baseURL, "/") + "/metrics/stream"
	if interval > 0 {
		u += fmt.Sprintf("?interval=%s", interval)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("top: %s: %s: %s", u, resp.Status, strings.TrimSpace(string(body)))
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var data strings.Builder
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			// Blank line dispatches the accumulated event.
			if data.Len() > 0 {
				var snap obs.Snapshot
				if err := json.Unmarshal([]byte(data.String()), &snap); err == nil {
					if err := fn(snap); err != nil {
						return err
					}
				}
				data.Reset()
			}
		case strings.HasPrefix(line, "data:"):
			data.WriteString(strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " "))
		default:
			// id:, event:, retry:, and ":" comments need no handling — the
			// stream carries a single event type and is not replayable.
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return sc.Err()
}

// FetchSnapshot pulls one snapshot from baseURL's /metrics/snapshot
// endpoint, for -once mode against a remote server.
func FetchSnapshot(ctx context.Context, baseURL string) (obs.Snapshot, error) {
	var snap obs.Snapshot
	u := strings.TrimRight(baseURL, "/") + "/metrics/snapshot"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return snap, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("top: %s: %s", u, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, fmt.Errorf("top: decoding %s: %w", u, err)
	}
	return snap, nil
}
