package pointer_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/pointer"
	"repro/internal/trace"
)

// roundCancel is a context that is cancelled while the solve's first
// fixpoint round runs: its Err reports context.Canceled once its
// tracer has recorded a finished round.
type roundCancel struct {
	context.Context
	tr *trace.Tracer
}

func (c roundCancel) Err() error {
	if c.tr.Summary()["round"].Count > 0 {
		return context.Canceled
	}
	return nil
}

// TestSolveStopsAfterCancelledRound: a context cancelled during the
// first round ends the solve when that round does, with the context's
// error and no result, though the solve needs more rounds to converge.
func TestSolveStopsAfterCancelledRound(t *testing.T) {
	// Each assignment reads the one after it, so the object reaches c
	// one round at a time.
	src := map[string]string{"main.c": `
void *malloc(int n);
int main(void) { void *a; void *b; void *c; c = b; b = a; a = malloc(1); return 0; }`}
	a, err := core.AnalyzeSource(core.Options{}, src)
	if err != nil {
		t.Fatal(err)
	}
	if a.Ptr.Rounds < 3 {
		t.Fatalf("the solve converges in %d rounds, want at least 3", a.Ptr.Rounds)
	}
	tr := trace.New()
	ctx := roundCancel{trace.WithTracer(context.Background(), tr), tr}
	r, err := pointer.AnalyzeContext(ctx, a.Numbering, a.Ptr.Config)
	if !errors.Is(err, context.Canceled) || r != nil {
		t.Fatalf("cancelled solve = %v, %v; want nil, context.Canceled", r, err)
	}
	if n := tr.Summary()["round"].Count; n != 1 {
		t.Fatalf("cancelled solve ran %d rounds, want 1", n)
	}
}
