package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

const brokenSrc = `
typedef struct region_t region_t;
extern region_t *rnew(region_t *parent);
extern void *ralloc(region_t *r);

struct conn_t { int fd; };
struct req_t { struct conn_t *connection; };

int main(void) {
    region_t *r; region_t *subr;
    struct conn_t *conn; struct req_t *req;
    r = rnew(NULL);
    conn = ralloc(r);
    subr = rnew(NULL);   /* BUG: sibling */
    req = ralloc(subr);
    req->connection = conn;
    return 0;
}
`

func sourcesFor(i int) map[string]string {
	// Distinct file names (and a distinguishing comment) make
	// distinct content-addressed keys.
	return map[string]string{
		fmt.Sprintf("prog%d.c", i): fmt.Sprintf("/* variant %d */\n%s", i, brokenSrc),
	}
}

// runCounter counts leader runs, per source file.
type runCounter struct {
	mu     sync.Mutex
	starts map[string]int // path of the (single) source -> runs
	total  atomic.Int64   // all runs
}

func newRunCounter() *runCounter { return &runCounter{starts: map[string]int{}} }

func (rc *runCounter) hook(sources map[string]string) {
	rc.total.Add(1)
	rc.mu.Lock()
	defer rc.mu.Unlock()
	for p := range sources {
		rc.starts[p]++
	}
}

func TestCacheHitRunsZeroPhases(t *testing.T) {
	rc := newRunCounter()
	s := New(Config{Workers: 2})
	s.leadHook = rc.hook
	defer s.Close()
	ctx := context.Background()

	first, err := s.Analyze(ctx, core.Options{}, sourcesFor(0))
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached || first.Coalesced {
		t.Fatalf("first request disposition cached=%v coalesced=%v, want fresh", first.Cached, first.Coalesced)
	}
	if len(first.Analysis.Report.Warnings) != 1 {
		t.Fatalf("expected 1 warning, got %d", len(first.Analysis.Report.Warnings))
	}
	if rc.total.Load() != 1 {
		t.Fatalf("first request ran %d times, want 1", rc.total.Load())
	}

	second, err := s.Analyze(ctx, core.Options{}, sourcesFor(0))
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("second identical request was not served from cache")
	}
	if got := rc.total.Load(); got != 1 {
		t.Fatalf("cache hit ran the pipeline (%d runs in total, want 1)", got)
	}
	if !bytes.Equal(first.ReportJSON, second.ReportJSON) {
		t.Fatal("cached report JSON differs from the fresh report")
	}
	if second.Key != first.Key {
		t.Fatalf("keys differ across identical requests: %s vs %s", first.Key, second.Key)
	}

	st := s.Stats()
	if st.Requests != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 2 requests / 1 hit / 1 miss", st)
	}
	if n := st.Histograms["phase:"+core.PhaseParse].Count; n != 1 {
		t.Fatalf("phase:parse span count = %d, want 1", n)
	}
}

// TestEquivalentOptionsShareCache: two spellings of the same
// configuration normalize to the same fingerprint and hit.
func TestEquivalentOptionsShareCache(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ctx := context.Background()
	if _, err := s.Analyze(ctx, core.Options{}, sourcesFor(0)); err != nil {
		t.Fatal(err)
	}
	res, err := s.Analyze(ctx, core.Options{Entry: "main", ContextCap: 4096, HeapCloning: core.Bool(true)}, sourcesFor(0))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Fatal("equivalent options missed the cache")
	}
}

// blockingHook gates leader runs: each run parks after admission
// until release is closed, letting tests saturate the pool.
func blockingHook(started chan<- struct{}, release <-chan struct{}) func(map[string]string) {
	return func(map[string]string) {
		started <- struct{}{}
		<-release
	}
}

func TestSingleflightCoalesces(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s := New(Config{Workers: 2})
	s.leadHook = blockingHook(started, release)
	defer s.Close()
	ctx := context.Background()

	var wg sync.WaitGroup
	results := make([]*Result, 3)
	errs := make([]error, 3)
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], errs[0] = s.Analyze(ctx, core.Options{}, sourcesFor(0))
	}()
	<-started // leader is inside the pipeline now
	for i := 1; i < 3; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = s.Analyze(ctx, core.Options{}, sourcesFor(0))
		}()
	}
	// Give the followers time to register as waiters, then let the
	// leader finish. If a follower raced ahead and became a second
	// leader it would park in the hook and `started` would fill —
	// checked below.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	for _, r := range results {
		if !bytes.Equal(r.ReportJSON, results[0].ReportJSON) {
			t.Fatal("shared results are not byte-identical")
		}
	}
	st := s.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want exactly 1 pipeline run for 3 identical requests", st.Misses)
	}
	if int(st.Coalesced)+int(st.Hits) != 2 {
		t.Fatalf("coalesced+hits = %d+%d, want 2", st.Coalesced, st.Hits)
	}
}

// TestLeaderPanicReleasesCall injects a panic into the leader's run
// after admission, inside its panic boundary. The panic must become
// an ErrInternal error for the leader and for a request coalesced onto
// it, and it must release the in-flight entry and the admission slot:
// the next identical request runs fresh on the single worker, and
// Close returns.
func TestLeaderPanicReleasesCall(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	var armed atomic.Bool
	armed.Store(true)
	s := New(Config{Workers: 1})
	s.leadHook = func(map[string]string) {
		if armed.Load() {
			started <- struct{}{}
			<-release
			panic("injected leader panic")
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	errs := make([]error, 2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, errs[0] = s.Analyze(ctx, core.Options{}, sourcesFor(0))
	}()
	<-started // the leader holds the in-flight entry now
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, errs[1] = s.Analyze(ctx, core.Options{}, sourcesFor(0))
	}()
	// Give the second request time to coalesce onto the leader.
	time.Sleep(20 * time.Millisecond)
	armed.Store(false)
	close(release)
	wg.Wait()

	var aerr *core.Error
	if !errors.As(errs[0], &aerr) || aerr.Kind != core.ErrInternal {
		t.Fatalf("leader err = %v, want internal Error", errs[0])
	}
	if errs[1] != errs[0] {
		t.Errorf("coalesced waiter err = %v, want the leader's %v", errs[1], errs[0])
	}
	if st := s.Stats(); st.Misses != 1 {
		t.Fatalf("misses = %d, want 1 pipeline run for the leader and its waiter", st.Misses)
	}

	if _, err := s.Analyze(ctx, core.Options{}, sourcesFor(0)); err != nil {
		t.Fatalf("identical request after the panic: %v", err)
	}
	if st := s.Stats(); st.Misses != 2 {
		t.Errorf("misses = %d, want 2: the request after the panic must run fresh", st.Misses)
	}

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung after a leader panic")
	}
}

func TestOverloadFailsFast(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s := New(Config{Workers: 1, QueueDepth: -1})
	s.leadHook = blockingHook(started, release)
	defer s.Close()
	ctx := context.Background()

	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := s.Analyze(ctx, core.Options{}, sourcesFor(0)); err != nil {
			t.Errorf("occupant: %v", err)
		}
	}()
	<-started // pool is now saturated

	_, err := s.Analyze(ctx, core.Options{}, sourcesFor(1))
	var aerr *core.Error
	if !errors.As(err, &aerr) || aerr.Kind != core.ErrOverload {
		t.Fatalf("err = %v, want overload Error", err)
	}
	if !errors.Is(err, &core.Error{Kind: core.ErrOverload}) {
		t.Fatal("errors.Is against overload sentinel failed")
	}

	close(release)
	<-done
	st := s.Stats()
	if st.Overloads != 1 {
		t.Fatalf("overloads = %d, want 1", st.Overloads)
	}
	// The pool drained: a new distinct request runs fine.
	if _, err := s.Analyze(ctx, core.Options{}, sourcesFor(2)); err != nil {
		t.Fatalf("after drain: %v", err)
	}
}

func TestQueueDeadlineOverload(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s := New(Config{Workers: 1, QueueDepth: 4})
	s.leadHook = blockingHook(started, release)
	defer s.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Analyze(context.Background(), core.Options{}, sourcesFor(0))
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := s.Analyze(ctx, core.Options{}, sourcesFor(1))
	var aerr *core.Error
	if !errors.As(err, &aerr) || aerr.Kind != core.ErrOverload {
		t.Fatalf("err = %v, want overload Error for deadline expiring in queue", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wraps context.DeadlineExceeded", err)
	}
	close(release)
	<-done
}

func TestCloseRejectsAndDrains(t *testing.T) {
	s := New(Config{Workers: 1})
	ctx := context.Background()
	if _, err := s.Analyze(ctx, core.Options{}, sourcesFor(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := s.Analyze(ctx, core.Options{}, sourcesFor(1)); err == nil {
		t.Fatal("Analyze after Close succeeded")
	}
}

// TestConcurrentCacheExercise is the -race workhorse: many goroutines
// fire a mixed hit/miss workload over a handful of unique keys and
// every response must carry byte-identical report JSON per key, with
// the pipeline having run exactly once per key.
func TestConcurrentCacheExercise(t *testing.T) {
	const uniqueKeys = 4
	const goroutines = 24
	const perG = 6

	rc := newRunCounter()
	s := New(Config{Workers: 4, QueueDepth: goroutines * perG})
	s.leadHook = rc.hook
	defer s.Close()

	var mu sync.Mutex
	byKey := make(map[string][]byte) // source path -> report JSON
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				i := (g + j) % uniqueKeys
				res, err := s.Analyze(context.Background(), core.Options{}, sourcesFor(i))
				if err != nil {
					t.Errorf("g%d j%d: %v", g, j, err)
					return
				}
				path := fmt.Sprintf("prog%d.c", i)
				mu.Lock()
				if prev, ok := byKey[path]; ok {
					if !bytes.Equal(prev, res.ReportJSON) {
						t.Errorf("key %s: cached and fresh reports differ", path)
					}
				} else {
					byKey[path] = res.ReportJSON
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	rc.mu.Lock()
	defer rc.mu.Unlock()
	if len(rc.starts) != uniqueKeys {
		t.Fatalf("leaders ran %d unique programs, want %d", len(rc.starts), uniqueKeys)
	}
	for path, n := range rc.starts {
		if n != 1 {
			t.Errorf("leaders ran %s %d times, want exactly 1", path, n)
		}
	}
	st := s.Stats()
	if st.Misses != uniqueKeys {
		t.Errorf("misses = %d, want %d (one pipeline run per unique key)", st.Misses, uniqueKeys)
	}
	if st.Requests != goroutines*perG {
		t.Errorf("requests = %d, want %d", st.Requests, goroutines*perG)
	}
	if got := st.Hits + st.Coalesced + st.Misses; got != st.Requests {
		t.Errorf("hits+coalesced+misses = %d, want %d", got, st.Requests)
	}
}

// TestNoGoroutineLeak saturates the pool, collects overload errors,
// drains, closes, and requires the goroutine count to settle back —
// the admission-control "no goroutine leak" acceptance check (run
// under -race in CI).
func TestNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s := New(Config{Workers: 1, QueueDepth: -1})
	s.leadHook = blockingHook(started, release)
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Analyze(context.Background(), core.Options{}, sourcesFor(0))
	}()
	<-started
	for i := 0; i < 16; i++ {
		if _, err := s.Analyze(context.Background(), core.Options{}, sourcesFor(1+i%3)); err == nil {
			t.Fatal("saturated service accepted a request")
		}
	}
	close(release)
	<-done
	s.Close()

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after drain", before, runtime.NumGoroutine())
}

func TestAnalyzeValidatesRequest(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	_, err := s.Analyze(context.Background(), core.Options{KCFA: -1}, sourcesFor(0))
	var aerr *core.Error
	if !errors.As(err, &aerr) || aerr.Kind != core.ErrConfig {
		t.Fatalf("err = %v, want config Error", err)
	}
	_, err = s.Analyze(context.Background(), core.Options{}, nil)
	if !errors.As(err, &aerr) || aerr.Kind != core.ErrConfig {
		t.Fatalf("empty sources err = %v, want config Error", err)
	}
	// Errors are not cached: a parse failure retried still fails (and
	// reruns), then the fixed source succeeds under the same path.
	bad := map[string]string{"x.c": "int main(void) { return }"}
	if _, err := s.Analyze(context.Background(), core.Options{}, bad); err == nil {
		t.Fatal("parse error expected")
	}
	if _, err := s.Analyze(context.Background(), core.Options{}, map[string]string{"x.c": "int main(void) { return 0; }"}); err != nil {
		t.Fatalf("fixed source: %v", err)
	}
}

func TestLRUCacheEviction(t *testing.T) {
	s := New(Config{Workers: 1, CacheEntries: 2})
	defer s.Close()
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := s.Analyze(ctx, core.Options{}, sourcesFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.CacheEntries != 2 || st.CacheEvictions != 1 {
		t.Fatalf("cache entries=%d evictions=%d, want 2/1", st.CacheEntries, st.CacheEvictions)
	}
	// Key 0 was evicted (LRU), key 2 still hits.
	res, err := s.Analyze(ctx, core.Options{}, sourcesFor(2))
	if err != nil || !res.Cached {
		t.Fatalf("key 2 cached=%v err=%v, want hit", res != nil && res.Cached, err)
	}
	res, err = s.Analyze(ctx, core.Options{}, sourcesFor(0))
	if err != nil || res.Cached {
		t.Fatalf("key 0 cached=%v err=%v, want evicted miss", res != nil && res.Cached, err)
	}
}
