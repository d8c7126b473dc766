package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"

	regionwiz "repro"
)

// logSink collects the daemon's log and hands over the address its
// "listening" line names, so a test learns the port -addr :0 chose
// without polling.
type logSink struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	addrs chan string
}

var listeningLine = regexp.MustCompile(`msg=listening addr=(\S+)`)

func (l *logSink) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if m := listeningLine.FindSubmatch(p); m != nil {
		l.addrs <- string(m[1])
	}
	return l.buf.Write(p)
}

func (l *logSink) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// boot runs the daemon on a free loopback port until the returned stop
// function ends its context; stop returns run's exit status.
func boot(t *testing.T) (base string, log *logSink, stop func() int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	log = &logSink{addrs: make(chan string, 1)}
	done := make(chan int, 1)
	go func() { done <- run(ctx, []string{"-addr", "127.0.0.1:0"}, log) }()
	select {
	case addr := <-log.addrs:
		return "http://" + addr, log, func() int { cancel(); return <-done }
	case code := <-done:
		cancel()
		t.Fatalf("daemon exited %d before listening:\n%s", code, log)
		return "", nil, nil
	}
}

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	return body
}

// TestDaemonExplainsLikeTheCLI boots the daemon, checks it is healthy,
// analyzes Figure 1 into a versioned report with warnings, and
// requires its explanations of Figure 1 to equal the document
// `regionwiz -json -explain all` prints for the same path: the library's
// MarshalExplanations, which the CLI's own test pins its output to.
// The request names the file by that path, since positions carry it.
// Ending the context shuts the daemon down with status 0.
func TestDaemonExplainsLikeTheCLI(t *testing.T) {
	base, log, stop := boot(t)
	get(t, base+"/v1/healthz")

	path := filepath.Join("..", "..", "examples", "figure1.c")
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{"sources": map[string]string{path: string(src)}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var analyzed struct {
		Key    string `json:"key"`
		Report struct {
			Schema   string `json:"schema"`
			Warnings []any  `json:"warnings"`
		} `json:"report"`
	}
	err = json.NewDecoder(resp.Body).Decode(&analyzed)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: status %d, %v", resp.StatusCode, err)
	}
	if analyzed.Report.Schema != "regionwiz/report/v1" || len(analyzed.Report.Warnings) == 0 {
		t.Fatalf("analyze report: schema %q with %d warnings", analyzed.Report.Schema, len(analyzed.Report.Warnings))
	}

	var daemon struct {
		Schema        string           `json:"schema"`
		WarningsTotal int              `json:"warnings_total"`
		Explanations  []map[string]any `json:"explanations"`
	}
	if err := json.Unmarshal(get(t, base+"/v1/explain?key="+url.QueryEscape(analyzed.Key)+"&warning=all"), &daemon); err != nil {
		t.Fatal(err)
	}
	if daemon.Schema != "regionwiz/explain/v1" || daemon.WarningsTotal == 0 || daemon.WarningsTotal != len(daemon.Explanations) {
		t.Fatalf("explain response: schema %q, %d warnings, %d explanations",
			daemon.Schema, daemon.WarningsTotal, len(daemon.Explanations))
	}
	for _, e := range daemon.Explanations {
		if e["tree"] == nil {
			t.Errorf("explanation without a tree: %v", e)
		}
	}

	a, err := regionwiz.AnalyzeFiles(regionwiz.Options{}, path)
	if err != nil {
		t.Fatal(err)
	}
	exps, err := a.Explain(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := regionwiz.MarshalExplanations(exps)
	if err != nil {
		t.Fatal(err)
	}
	var cli struct {
		Explanations []map[string]any `json:"explanations"`
	}
	if err := json.Unmarshal(doc, &cli); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(daemon.Explanations, cli.Explanations) {
		t.Errorf("daemon explanations differ from the CLI's:\n--- daemon ---\n%v\n--- CLI ---\n%s", daemon.Explanations, doc)
	}

	if code := stop(); code != 0 {
		t.Errorf("daemon exited %d after its context ended, want 0:\n%s", code, log)
	}
	if !strings.Contains(log.String(), "msg=\"shutting down\"") {
		t.Errorf("no shutdown line in the log:\n%s", log)
	}
}

// ended is a context that has already ended, so a daemon that should
// have refused to start returns at once instead of serving.
func ended() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// TestDaemonPortTaken: when the port is already bound, run returns 1
// and never logs that it is listening.
func TestDaemonPortTaken(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var log bytes.Buffer
	if code := run(ended(), []string{"-addr", ln.Addr().String()}, &log); code != 1 {
		t.Errorf("exit %d on a taken port, want 1", code)
	}
	if strings.Contains(log.String(), "listening") {
		t.Errorf("a daemon that could not bind logged listening:\n%s", log.String())
	}
}

// TestDaemonPprofPortTaken: when the -pprof-addr port is already
// bound, run returns 1 and logs neither listening line.
func TestDaemonPprofPortTaken(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var log bytes.Buffer
	if code := run(ended(), []string{"-addr", "127.0.0.1:0", "-pprof-addr", ln.Addr().String()}, &log); code != 1 {
		t.Errorf("exit %d on a taken pprof port, want 1", code)
	}
	if strings.Contains(log.String(), "listening") {
		t.Errorf("a daemon whose pprof listener could not bind logged listening:\n%s", log.String())
	}
}

// TestDaemonPprofLogsBoundAddr: the "pprof listening" line names the
// port -pprof-addr :0 chose.
func TestDaemonPprofLogsBoundAddr(t *testing.T) {
	var log bytes.Buffer
	if code := run(ended(), []string{"-addr", "127.0.0.1:0", "-pprof-addr", "127.0.0.1:0"}, &log); code != 0 {
		t.Fatalf("exit %d, want 0:\n%s", code, log.String())
	}
	m := regexp.MustCompile(`msg="pprof listening" addr=127\.0\.0\.1:(\d+)`).FindStringSubmatch(log.String())
	if m == nil || m[1] == "0" {
		t.Errorf("no pprof listening line with a bound port:\n%s", log.String())
	}
}

// TestDaemonUsageErrors: usage errors exit 2 before binding anything,
// the retired snapshot-store flag included, and -h exits 0.
func TestDaemonUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-snapshot-entries", "1"}, 2},
		{[]string{"-log-level", "loud"}, 2},
		{[]string{"-h"}, 0},
	} {
		var log bytes.Buffer
		args := append([]string{"-addr", "127.0.0.1:0"}, tc.args...)
		if code := run(ended(), args, &log); code != tc.want {
			t.Errorf("regionwizd %v: exit %d, want %d: %s", tc.args, code, tc.want, log.String())
		}
	}
}
