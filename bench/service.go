package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"cacheeval/internal/server"
	"cacheeval/internal/workload"
)

// service is one evaluation server (server.New(...).Handler()) on a real
// loopback listener, with the benchmark's client: at most two connections,
// the load the benchmark allows itself on a 2-core machine.
type service struct {
	srv       *server.Server
	hs        *http.Server
	base      string
	client    *http.Client
	served    chan error
	closeOnce sync.Once
	closeErr  error
}

// maxConns bounds the benchmark client's connections to the server.
const maxConns = 2

func startService(cfg server.Config) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.New(cfg)
	s := &service{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns, DisableCompression: true,
		}},
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	if _, err := s.get(context.Background(), "/healthz"); err != nil {
		s.close()
		return nil, fmt.Errorf("server not ready: %w", err)
	}
	return s, nil
}

// close drains the listener, cancels the server's background work, and
// waits for the serving goroutine to return. Later calls return the first
// call's error.
func (s *service) close() error {
	s.closeOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := s.hs.Shutdown(ctx)
		s.srv.Close()
		if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		s.client.CloseIdleConnections()
		s.closeErr = err
	})
	return s.closeErr
}

// get fetches path and returns the body of a 200 response.
func (s *service) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return nil, err
	}
	return s.do(req)
}

// post sends body to path and returns the body of a 2xx response.
func (s *service) post(ctx context.Context, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	return s.do(req)
}

func (s *service) do(req *http.Request) ([]byte, error) {
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, bytes.TrimSpace(b))
	}
	return b, nil
}

// snapshot reads the server's counters from /metrics.
func (s *service) snapshot(ctx context.Context) (server.MetricsSnapshot, error) {
	var snap server.MetricsSnapshot
	b, err := s.get(ctx, "/metrics?format=json")
	if err != nil {
		return snap, err
	}
	return snap, json.Unmarshal(b, &snap)
}

// catalog lists the server's mixes through GET /v1/mixes.
func (s *service) catalog(ctx context.Context) ([]server.MixInfo, error) {
	b, err := s.get(ctx, "/v1/mixes")
	if err != nil {
		return nil, err
	}
	var out struct {
		Mixes []server.MixInfo `json:"mixes"`
	}
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, err
	}
	if len(out.Mixes) == 0 {
		return nil, errors.New("empty mix catalog")
	}
	return out.Mixes, nil
}

// serviceSetup times the service workloads' set-up: the server started on
// its listener and answering /healthz, and the mix catalog the load
// generator draws from read through GET /v1/mixes. Shutting the server down
// again is not timed.
func serviceSetup(ctx context.Context, _ opts) (time.Duration, error) {
	t0 := time.Now()
	s, err := startService(server.Config{})
	if err != nil {
		return 0, err
	}
	_, err = s.catalog(ctx)
	d := time.Since(t0)
	if cerr := s.close(); err == nil {
		err = cerr
	}
	return d, err
}

// libraryMix resolves a catalog name to the workload the server simulates
// under it, through the same public corpus calls the server's catalog is
// built from: every corpus trace and section as a single-program mix with
// its architecture's quantum, plus the paper's standard mixes.
func libraryMix(name string) (workload.Mix, error) {
	for _, m := range append(workload.StandardMixes(), workload.M68000Mix()) {
		if m.Name == name {
			return m, nil
		}
	}
	spec, err := workload.ByName(name)
	if err != nil {
		return workload.Mix{}, err
	}
	arch, err := workload.ArchByID(spec.Arch)
	if err != nil {
		return workload.Mix{}, err
	}
	return workload.Mix{Name: name, Specs: []workload.Spec{spec}, Quantum: arch.PurgeInterval}, nil
}

// volatileKeys are response fields that describe how an answer was served,
// not the answer.
var volatileKeys = []string{"cached", "shared", "elapsed_ms", "trace"}

// canonicalPayload reduces a JSON object to its answer: volatile keys
// dropped, every value re-encoded canonically (object keys sorted, numbers
// kept verbatim), so two encodings of one answer compare byte for byte.
func canonicalPayload(b []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var m map[string]any
	if err := dec.Decode(&m); err != nil {
		return nil, err
	}
	for _, k := range volatileKeys {
		delete(m, k)
	}
	return json.Marshal(m)
}

// canonical re-encodes any JSON value canonically.
func canonical(b []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	return json.Marshal(v)
}

// uncachedConfig is the replay oracle's server: no memo and no stream
// cache, so every answer is computed afresh.
var uncachedConfig = server.Config{MemoEntries: -1, StreamEntries: -1}
