package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"slices"
	"sync"
	"time"

	"repro"
	"repro/internal/workloads"
)

// daemon-mixed: the regionwizd HTTP API under a mixed request stream.
// The service runs in-process on a loopback listener; four closed-loop
// clients each repeat a ten-request cycle:
//
//   - 4 hot analyses: full sources of a program already analyzed, served
//     from the result cache;
//   - 2 cold analyses: a corpus program with a fresh comment appended,
//     so the content-addressed cache misses and the pipeline runs;
//   - 2 deltas: the client's own editing session (see editor) sent as
//     a delta against its previous result;
//   - 1 explain and 1 pair query against a hot result.
//
// Programs come from every package except subversion, whose results and
// snapshots are too large to keep dozens of in a small machine.

const daemonClients = 4

var daemonCycle = []string{"hot", "delta", "hot", "explain", "cold", "hot", "delta", "query", "hot", "cold"}

var (
	daemonHot      = []string{"rcc-0", "apache-0", "freeswitch-0", "lklftpd-0"}
	daemonSessions = []string{"apache-1", "jxta-c-0", "apache-2", "freeswitch-0"}
)

// daemonSplit is how many files a session's program is split into.
const daemonSplit = 4

type daemonEnv struct {
	seed     int64
	an       *regionwiz.Analyzer
	srv      *http.Server
	served   chan error
	base     string
	client   *http.Client
	hot      []*hotProg
	cold     []*program
	sessions []*session
}

type hotProg struct {
	prog     *program
	body     []byte // the encoded POST /v1/analyze request
	key      string
	warnings []warning
}

type session struct {
	ed  *editor
	key string
}

type analyzeRequest struct {
	Sources map[string]string `json:"sources,omitempty"`
	Base    string            `json:"base,omitempty"`
	Changed map[string]string `json:"changed,omitempty"`
}

type analyzeResponse struct {
	Cached    bool   `json:"cached"`
	Coalesced bool   `json:"coalesced"`
	Key       string `json:"key"`
	Report    struct {
		Warnings []warning `json:"warnings"`
		Stats    struct {
			Phases []phase `json:"phases"`
		} `json:"stats"`
	} `json:"report"`
}

type explainResponse struct {
	WarningsTotal int               `json:"warnings_total"`
	Explanations  []json.RawMessage `json:"explanations"`
}

type queryResponse struct {
	Answer struct {
		Inconsistent bool `json:"inconsistent"`
	} `json:"answer"`
}

// errSnapshotGone is a delta whose base the daemon has evicted (HTTP
// 409); the client resends full sources.
var errSnapshotGone = errors.New("snapshot gone")

func setupDaemonMixed(seed int64) (env, error) {
	byName := map[string]*program{}
	e := &daemonEnv{seed: seed}
	for _, pkg := range corpus(seed, func(s workloads.Spec) bool { return s.Name != "subversion" }) {
		for _, exe := range pkg.Exes {
			p := programOf(pkg, exe, 1)
			byName[p.name] = p
			e.cold = append(e.cold, p)
			if slices.Contains(daemonSessions, p.name) {
				byName[p.name+"/split"] = programOf(pkg, exe, daemonSplit)
			}
		}
	}

	an, err := regionwiz.NewAnalyzer(regionwiz.Options{}, regionwiz.AnalyzerConfig{
		Workers:         2,
		QueueDepth:      64,
		CacheEntries:    32,
		SnapshotEntries: 32,
		RequestTimeout:  time.Minute,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		an.Close()
		return nil, err
	}
	e.an = an
	e.srv = &http.Server{Handler: an.Handler(), ReadHeaderTimeout: 10 * time.Second}
	e.served = make(chan error, 1)
	go func() { e.served <- e.srv.Serve(ln) }()
	e.base = "http://" + ln.Addr().String()
	e.client = &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: daemonClients, DisableCompression: true},
	}

	ctx := context.Background()
	for _, name := range daemonHot {
		h := &hotProg{prog: byName[name]}
		if h.body, err = json.Marshal(analyzeRequest{Sources: h.prog.sources}); err != nil {
			e.close()
			return nil, err
		}
		resp, err := e.analyze(ctx, h.body)
		if err == nil {
			err = h.prog.check(h.prog.sources, resp.Report.Warnings)
		}
		if err != nil {
			e.close()
			return nil, fmt.Errorf("priming %s: %w", name, err)
		}
		h.key, h.warnings = resp.Key, resp.Report.Warnings
		e.hot = append(e.hot, h)
	}
	for _, name := range daemonSessions {
		s := &session{ed: newEditor(byName[name+"/split"])}
		body, err := json.Marshal(analyzeRequest{Sources: s.ed.cur})
		if err != nil {
			e.close()
			return nil, err
		}
		resp, err := e.analyze(ctx, body)
		if err != nil {
			e.close()
			return nil, fmt.Errorf("priming session %s: %w", name, err)
		}
		s.key = resp.Key
		e.sessions = append(e.sessions, s)
	}
	return e, nil
}

func (e *daemonEnv) measure(deadline time.Time, rec *recorder) error {
	before := e.an.Stats()
	var wg sync.WaitGroup
	for c := 0; c < daemonClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			e.runClient(c, deadline, rec)
		}(c)
	}
	wg.Wait()
	rec.service(before, e.an.Stats())
	return nil
}

// runClient is one closed-loop client: it sends its next request only
// after the previous one completed. Hot and cold programs are taken in
// turn from a seeded starting point, so every run sends the same mix.
func (e *daemonEnv) runClient(c int, deadline time.Time, rec *recorder) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(e.seed*1000 + int64(c)))
	hotSeq, coldSeq := rng.Intn(len(e.hot)), rng.Intn(len(e.cold))
	sess := e.sessions[c%len(e.sessions)]
	for i := 3 * c; time.Now().Before(deadline); i++ {
		kind := daemonCycle[i%len(daemonCycle)]
		rec.attempt()
		o := op{kind: kind, start: time.Now()}
		var err error
		var h *hotProg
		if kind == "hot" || kind == "explain" || kind == "query" {
			hotSeq++
			h = e.hot[hotSeq%len(e.hot)]
		}
		switch kind {
		case "hot":
			err = e.hotAnalyze(ctx, h, &o)
		case "cold":
			coldSeq++
			p := e.cold[coldSeq%len(e.cold)]
			err = e.coldAnalyze(ctx, p, fmt.Sprintf("client %d request %d", c, coldSeq), &o)
		case "delta":
			err = e.delta(ctx, sess, &o)
		case "explain":
			err = e.explain(ctx, h, &o)
		case "query":
			err = e.query(ctx, h, &o)
		}
		var wrong *wrongOutput
		switch {
		case errors.As(err, &wrong):
			rec.wrong("%v", err)
			rec.add(o)
		case err != nil:
			rec.fail(fmt.Errorf("%s request: %w", kind, err))
		default:
			rec.add(o)
		}
	}
}

// wrongOutput is a request that succeeded with an incorrect answer.
type wrongOutput struct{ err error }

func (w *wrongOutput) Error() string { return w.err.Error() }

func (e *daemonEnv) hotAnalyze(ctx context.Context, h *hotProg, o *op) error {
	resp, err := e.analyzeOp(ctx, h.body, o)
	if err != nil {
		return err
	}
	return checked(h.prog, h.prog.sources, resp)
}

func (e *daemonEnv) coldAnalyze(ctx context.Context, p *program, tag string, o *op) error {
	t0 := time.Now()
	sources := make(map[string]string, len(p.sources))
	for path, src := range p.sources {
		sources[path] = src
	}
	sources[p.name+".c"] += "\n/* " + tag + " */\n"
	body, err := json.Marshal(analyzeRequest{Sources: sources})
	o.spend(time.Since(t0))
	if err != nil {
		return err
	}
	resp, err := e.analyzeOp(ctx, body, o)
	if err != nil {
		return err
	}
	return checked(p, sources, resp)
}

// delta sends the session's next edit; if the daemon has evicted the
// base snapshot it resends the full sources, as the protocol asks.
func (e *daemonEnv) delta(ctx context.Context, s *session, o *op) error {
	t0 := time.Now()
	path, src := s.ed.next()
	body, err := json.Marshal(analyzeRequest{Base: s.key, Changed: map[string]string{path: src}})
	o.spend(time.Since(t0))
	if err != nil {
		return err
	}
	resp, err := e.analyzeOp(ctx, body, o)
	if errors.Is(err, errSnapshotGone) {
		t0 := time.Now()
		body, err = json.Marshal(analyzeRequest{Sources: s.ed.cur})
		o.spend(time.Since(t0))
		if err != nil {
			return err
		}
		resp, err = e.analyzeOp(ctx, body, o)
	}
	if err != nil {
		return err
	}
	s.key = resp.Key
	return checked(s.ed.prog, s.ed.cur, resp)
}

func checked(p *program, sources map[string]string, resp *analyzeResponse) error {
	if err := p.check(sources, resp.Report.Warnings); err != nil {
		return &wrongOutput{err}
	}
	return nil
}

func (e *daemonEnv) explain(ctx context.Context, h *hotProg, o *op) error {
	var resp explainResponse
	if err := e.get(ctx, "/v1/explain?"+url.Values{"key": {h.key}}.Encode(), &resp, o); err != nil {
		return err
	}
	if resp.WarningsTotal != len(h.warnings) || len(resp.Explanations) != len(h.warnings) {
		return &wrongOutput{fmt.Errorf("%s: %d explanations of %d warnings, report has %d",
			h.prog.name, len(resp.Explanations), resp.WarningsTotal, len(h.warnings))}
	}
	return nil
}

func (e *daemonEnv) query(ctx context.Context, h *hotProg, o *op) error {
	w := h.warnings[0]
	q := url.Values{"key": {h.key}, "src": {siteOf(w.SrcSite)}, "dst": {siteOf(w.DstSite)}}
	var resp queryResponse
	if err := e.get(ctx, "/v1/query?"+q.Encode(), &resp, o); err != nil {
		return err
	}
	if !resp.Answer.Inconsistent {
		return &wrongOutput{fmt.Errorf("%s: query for reported pair %s -> %s answered consistent",
			h.prog.name, w.SrcSite, w.DstSite)}
	}
	return nil
}

// analyze posts an analyze request outside any measured operation.
func (e *daemonEnv) analyze(ctx context.Context, body []byte) (*analyzeResponse, error) {
	return e.analyzeOp(ctx, body, &op{})
}

// analyzeOp posts an analyze request, recording the response decoding
// as client time and a fresh run's phases on the operation.
func (e *daemonEnv) analyzeOp(ctx context.Context, body []byte, o *op) (*analyzeResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.base+"/v1/analyze", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	var resp analyzeResponse
	if err := e.do(req, &resp, o); err != nil {
		return nil, err
	}
	if !resp.Cached && !resp.Coalesced {
		o.runs = append(o.runs, resp.Report.Stats.Phases)
	}
	return &resp, nil
}

func (e *daemonEnv) get(ctx context.Context, path string, out any, o *op) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.base+path, nil)
	if err != nil {
		return err
	}
	return e.do(req, out, o)
}

// do sends a request and decodes a 200 response into out.
// The round trip counts toward the operation's latency, the decoding
// toward both its latency and its client time.
func (e *daemonEnv) do(req *http.Request, out any, o *op) error {
	t0 := time.Now()
	resp, err := e.client.Do(req)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.wall += time.Since(t0)
	if err != nil {
		return err
	}
	switch {
	case resp.StatusCode == http.StatusConflict:
		return errSnapshotGone
	case resp.StatusCode != http.StatusOK:
		return fmt.Errorf("%s %s: HTTP %d: %s", req.Method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(data))
	}
	t0 = time.Now()
	err = json.Unmarshal(data, out)
	o.spend(time.Since(t0))
	return err
}

func (e *daemonEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.srv.Shutdown(ctx); err != nil {
		e.srv.Close()
	}
	<-e.served
	e.client.CloseIdleConnections()
	e.an.Close()
}
