// Package telemetry implements the Shasta SMA Telemetry API: the HTTP
// middleman between Kafka and data consumers, "responsible for
// authentication and balancing income requests". Clients create a
// subscription to one or more Kafka topics and long-poll batches of
// records; the server drives a consumer-group member per subscription.
package telemetry

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"shastamon/internal/kafka"
	"shastamon/internal/obs"
)

// Record is one message delivered to a telemetry client.
type Record struct {
	Topic     string    `json:"topic"`
	Partition int       `json:"partition"`
	Offset    int64     `json:"offset"`
	Key       string    `json:"key,omitempty"` // base64
	Value     string    `json:"value"`         // base64
	Timestamp time.Time `json:"timestamp"`
	// Headers carries Kafka message headers through the API, notably the
	// obs trace ID under obs.TraceHeader.
	Headers map[string]string `json:"headers,omitempty"`
}

// DecodeValue returns the raw message payload.
func (r Record) DecodeValue() ([]byte, error) { return base64.StdEncoding.DecodeString(r.Value) }

type subscription struct {
	id       string
	consumer *kafka.Consumer
	manual   bool       // commit only after the response is written
	mu       sync.Mutex // serialises polls per subscription
}

// ServerConfig configures the API server.
type ServerConfig struct {
	Broker *kafka.Broker
	// Tokens holds accepted bearer tokens. Empty disables authentication.
	Tokens []string
	// ManualCommitTopics lists topics whose subscriptions use manual offset
	// commits: a polled batch is committed only after the response has been
	// written, so a server crash mid-stream re-delivers the batch to the
	// next group member (at-least-once). Other topics keep auto-commit
	// (at-most-once), matching a sensor fleet that prefers freshness.
	ManualCommitTopics []string
}

// maxConcurrentPolls bounds in-flight stream requests (the API's
// "balancing" role).
const maxConcurrentPolls = 64

// Server is the telemetry API HTTP handler.
type Server struct {
	broker *kafka.Broker
	tokens map[string]bool
	sem    chan struct{}
	tracer *obs.Tracer
	manual map[string]bool

	reg       *obs.Registry
	requests  *obs.CounterVec
	authFails *obs.Counter
	streamed  *obs.Counter

	mu     sync.Mutex
	subs   map[string]*subscription
	nextID int
}

// NewServer validates the config and returns a server.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Broker == nil {
		return nil, fmt.Errorf("telemetry: broker required")
	}
	s := &Server{
		broker: cfg.Broker,
		tokens: map[string]bool{},
		sem:    make(chan struct{}, maxConcurrentPolls),
		subs:   map[string]*subscription{},
		manual: map[string]bool{},
		reg:    obs.NewRegistry(),
	}
	for _, t := range cfg.Tokens {
		s.tokens[t] = true
	}
	for _, t := range cfg.ManualCommitTopics {
		s.manual[t] = true
	}
	s.requests = s.reg.CounterVec(obs.Namespace+"telemetry_requests_total",
		"Telemetry API HTTP requests by endpoint and status code.", "endpoint", "code")
	s.authFails = s.reg.Counter(obs.Namespace+"telemetry_auth_failures_total",
		"Requests rejected for a missing or invalid bearer token.")
	s.streamed = s.reg.Counter(obs.Namespace+"telemetry_records_streamed_total",
		"Kafka records delivered to telemetry clients.")
	s.reg.GaugeFunc(obs.Namespace+"telemetry_subscriptions",
		"Live telemetry subscriptions.", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.subs))
		})
	return s, nil
}

// Metrics exposes the server's self-monitoring registry.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// SetTracer attaches an event tracer; records passing through the stream
// endpoint that carry a trace header get a "telemetry.stream" stage.
func (s *Server) SetTracer(t *obs.Tracer) { s.tracer = t }

func (s *Server) authorized(r *http.Request) bool {
	if len(s.tokens) == 0 {
		return true
	}
	h := r.Header.Get("Authorization")
	const prefix = "Bearer "
	return strings.HasPrefix(h, prefix) && s.tokens[strings.TrimPrefix(h, prefix)]
}

// Handler returns the HTTP mux:
//
//	GET    /v1/topics
//	POST   /v1/subscriptions        {"topics": [...], "group": "..."}
//	GET    /v1/stream/{id}?max=&timeout_ms=
//	DELETE /v1/subscriptions/{id}
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/topics", s.withAuth(s.handleTopics))
	mux.HandleFunc("/v1/subscriptions", s.withAuth(s.handleSubscriptions))
	mux.HandleFunc("/v1/subscriptions/", s.withAuth(s.handleSubscriptionDelete))
	mux.HandleFunc("/v1/stream/", s.withAuth(s.handleStream))
	return mux
}

// statusRecorder captures the response code for the request counter.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.code = code
	sr.ResponseWriter.WriteHeader(code)
}

// endpointLabel coarsens request paths so the metric's cardinality stays
// bounded (subscription IDs are unbounded).
func endpointLabel(path string) string {
	switch {
	case strings.HasPrefix(path, "/v1/stream/"):
		return "stream"
	case strings.HasPrefix(path, "/v1/subscriptions"):
		return "subscriptions"
	case strings.HasPrefix(path, "/v1/topics"):
		return "topics"
	}
	return "other"
}

func (s *Server) withAuth(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sr := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		defer func() {
			s.requests.With(endpointLabel(r.URL.Path), strconv.Itoa(sr.code)).Inc()
		}()
		if !s.authorized(r) {
			s.authFails.Inc()
			http.Error(sr, "unauthorized", http.StatusUnauthorized)
			return
		}
		next(sr, r)
	}
}

func (s *Server) handleTopics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, s.broker.Topics())
}

type subscribeRequest struct {
	Topics []string `json:"topics"`
	Group  string   `json:"group"`
}

type subscribeResponse struct {
	ID string `json:"id"`
}

func (s *Server) handleSubscriptions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var req subscribeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Topics) == 0 {
		http.Error(w, "bad request: topics required", http.StatusBadRequest)
		return
	}
	for _, t := range req.Topics {
		if _, err := s.broker.Partitions(t); err != nil {
			http.Error(w, "unknown topic "+t, http.StatusNotFound)
			return
		}
	}
	manual := false
	for _, t := range req.Topics {
		if s.manual[t] {
			manual = true
		}
	}
	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("sub-%d", s.nextID)
	group := req.Group
	if group == "" {
		group = id
	}
	newConsumer := kafka.NewConsumer
	if manual {
		newConsumer = kafka.NewManualConsumer
	}
	sub := &subscription{
		id:       id,
		consumer: newConsumer(s.broker, group, id, req.Topics...),
		manual:   manual,
	}
	s.subs[id] = sub
	s.mu.Unlock()
	writeJSON(w, subscribeResponse{ID: id})
}

func (s *Server) handleSubscriptionDelete(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodDelete {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/subscriptions/")
	s.mu.Lock()
	sub, ok := s.subs[id]
	delete(s.subs, id)
	s.mu.Unlock()
	if !ok {
		http.Error(w, "unknown subscription", http.StatusNotFound)
		return
	}
	sub.consumer.Close()
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/stream/")
	s.mu.Lock()
	sub, ok := s.subs[id]
	s.mu.Unlock()
	if !ok {
		http.Error(w, "unknown subscription", http.StatusNotFound)
		return
	}
	max := 100
	if v := r.URL.Query().Get("max"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			http.Error(w, "bad max", http.StatusBadRequest)
			return
		}
		max = n
	}
	timeout := 0 * time.Millisecond
	if v := r.URL.Query().Get("timeout_ms"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "bad timeout_ms", http.StatusBadRequest)
			return
		}
		timeout = time.Duration(n) * time.Millisecond
	}

	// Balancing: bounded concurrency across all clients.
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-r.Context().Done():
		return
	}

	sub.mu.Lock()
	defer sub.mu.Unlock()
	t0 := time.Now()
	msgs, err := sub.consumer.Poll(max, timeout)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	pollDur := time.Since(t0)
	out := make([]Record, 0, len(msgs))
	for _, m := range msgs {
		if tid := m.Headers[obs.TraceHeader]; tid != "" {
			s.tracer.Span(tid, "telemetry.stream", m.Timestamp, m.Timestamp.Add(pollDur), id)
		}
		out = append(out, Record{
			Topic:     m.Topic,
			Partition: m.Partition,
			Offset:    m.Offset,
			Key:       base64.StdEncoding.EncodeToString(m.Key),
			Value:     base64.StdEncoding.EncodeToString(m.Value),
			Timestamp: m.Timestamp,
			Headers:   m.Headers,
		})
	}
	s.streamed.Add(float64(len(out)))
	writeJSON(w, out)
	// At-least-once: the batch's offsets are persisted only now that the
	// response is on the wire. A crash above re-delivers the batch.
	if sub.manual {
		sub.consumer.CommitPolled()
	}
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
