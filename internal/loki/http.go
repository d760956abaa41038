package loki

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"shastamon/internal/labels"
	"shastamon/internal/tenant"
)

// This file implements Loki's HTTP API surface so that Promtail-style
// clients and LogCLI can speak to the store over the wire:
//
//	POST /loki/api/v1/push                  (the Fig. 3 JSON payload)
//	GET  /loki/api/v1/labels
//	GET  /loki/api/v1/label/{name}/values
//	GET  /loki/api/v1/series?match[]=...
//
// Query endpoints (instant/range) live on the engine side; see the logql
// package and internal/grafana.

// pushRequest is the Loki push-API JSON body: Fig. 3 of the paper.
type pushRequest struct {
	Streams []pushStream `json:"streams"`
}

type pushStream struct {
	Stream map[string]string `json:"stream"`
	Values [][2]string       `json:"values"` // [ns-epoch string, line]
}

// ParsePushRequest decodes the Loki push JSON into PushStreams.
func ParsePushRequest(data []byte) ([]PushStream, error) {
	var req pushRequest
	if err := json.Unmarshal(data, &req); err != nil {
		return nil, fmt.Errorf("loki: bad push payload: %w", err)
	}
	out := make([]PushStream, 0, len(req.Streams))
	for _, s := range req.Streams {
		ps := PushStream{Labels: labels.FromMap(s.Stream)}
		for _, v := range s.Values {
			ts, err := strconv.ParseInt(v[0], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("loki: bad timestamp %q: %w", v[0], err)
			}
			ps.Entries = append(ps.Entries, Entry{Timestamp: ts, Line: v[1]})
		}
		out = append(out, ps)
	}
	return out, nil
}

// MarshalPushRequest encodes PushStreams as the Loki push JSON.
func MarshalPushRequest(streams []PushStream) ([]byte, error) {
	req := pushRequest{Streams: make([]pushStream, 0, len(streams))}
	for _, s := range streams {
		ps := pushStream{Stream: s.Labels.Map()}
		for _, e := range s.Entries {
			ps.Values = append(ps.Values, [2]string{strconv.FormatInt(e.Timestamp, 10), e.Line})
		}
		req.Streams = append(req.Streams, ps)
	}
	return json.Marshal(req)
}

// Handler exposes the store's write and metadata API.
func (s *Store) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/loki/api/v1/push", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		var body []byte
		buf := make([]byte, 4096)
		for {
			n, err := r.Body.Read(buf)
			body = append(body, buf[:n]...)
			if err != nil {
				break
			}
		}
		streams, err := ParsePushRequest(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := s.PushTenant(tenant.FromRequest(r), streams); err != nil {
			// Loki returns 400 for validation/ordering rejects and 429
			// when the tenant's ingest quota is exhausted.
			code := http.StatusBadRequest
			if errors.Is(err, ErrRateLimited) {
				code = http.StatusTooManyRequests
			}
			http.Error(w, err.Error(), code)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("/loki/api/v1/labels", func(w http.ResponseWriter, r *http.Request) {
		writeLokiJSON(w, map[string]interface{}{"status": "success", "data": s.idx.LabelNames(tenant.FromRequest(r))})
	})
	mux.HandleFunc("/loki/api/v1/label/", func(w http.ResponseWriter, r *http.Request) {
		rest := strings.TrimPrefix(r.URL.Path, "/loki/api/v1/label/")
		name := strings.TrimSuffix(rest, "/values")
		if name == rest || name == "" {
			http.NotFound(w, r)
			return
		}
		writeLokiJSON(w, map[string]interface{}{"status": "success", "data": s.LabelValuesTenant(tenant.FromRequest(r), name)})
	})
	mux.HandleFunc("/loki/api/v1/series", func(w http.ResponseWriter, r *http.Request) {
		var sel labels.Selector
		if m := r.URL.Query().Get("match[]"); m != "" {
			parsed, err := parseSimpleSelector(m)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			sel = parsed
		}
		var data []map[string]string
		for _, ls := range s.SeriesTenant(tenant.FromRequest(r), sel) {
			data = append(data, ls.Map())
		}
		writeLokiJSON(w, map[string]interface{}{"status": "success", "data": data})
	})
	return mux
}

func writeLokiJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// parseSimpleSelector parses {a="b", c="d"} with equality matchers only —
// enough for the series endpoint without importing the logql parser
// (which would create an import cycle).
func parseSimpleSelector(s string) (labels.Selector, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "{") || !strings.HasSuffix(s, "}") {
		return nil, fmt.Errorf("loki: bad selector %q", s)
	}
	inner := strings.TrimSpace(s[1 : len(s)-1])
	if inner == "" {
		return nil, nil
	}
	var sel labels.Selector
	for _, part := range strings.Split(inner, ",") {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("loki: bad matcher %q", part)
		}
		name := strings.TrimSpace(kv[0])
		val := strings.Trim(strings.TrimSpace(kv[1]), `"`)
		m, err := labels.NewMatcher(labels.MatchEqual, name, val)
		if err != nil {
			return nil, err
		}
		sel = append(sel, m)
	}
	return sel, nil
}

// Client pushes to a remote Loki over HTTP; Promtail and the forwarders
// can use it in place of a direct *Store handle.
type Client struct {
	url    string
	client *http.Client
	org    string
	token  string
}

// NewClient returns a push client for the Loki at base URL.
func NewClient(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 10 * time.Second}
	}
	return &Client{url: base + "/loki/api/v1/push", client: httpClient}
}

// SetOrgID stamps the X-Scope-OrgID header on every push, routing the
// batches into that tenant's namespace.
func (c *Client) SetOrgID(id string) { c.org = id }

// SetToken sends a bearer token with every push, for stores behind
// tenant auth.
func (c *Client) SetToken(tok string) { c.token = tok }

// Push sends one batch.
func (c *Client) Push(streams []PushStream) error {
	body, err := MarshalPushRequest(streams)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, c.url, strings.NewReader(string(body)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.org != "" {
		req.Header.Set(tenant.OrgIDHeader, c.org)
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return fmt.Errorf("loki: push: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("loki: push status %d", resp.StatusCode)
	}
	return nil
}
