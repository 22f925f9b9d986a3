package idelayer

import (
	"testing"
	"time"

	"idebench/internal/engine"
	"idebench/internal/engine/exactdb"
	"idebench/internal/enginetest"
)

// withDelay wraps exactdb with a render delay other than the package's.
func withDelay(d time.Duration) *Engine {
	e := New(exactdb.New())
	e.renderDelay = d
	return e
}

func TestConformance(t *testing.T) {
	enginetest.Conformance(t, func() engine.Engine {
		return withDelay(time.Millisecond)
	}, true)
}

func TestMultiUserScenario(t *testing.T) {
	enginetest.MultiUserScenario(t, func() engine.Engine {
		return withDelay(time.Millisecond)
	}, true)
}

func TestIngestScenario(t *testing.T) {
	enginetest.IngestScenario(t, func() engine.Engine {
		return withDelay(time.Millisecond)
	}, true)
}

func TestName(t *testing.T) {
	e := New(exactdb.New())
	if e.Name() != "idelayer(exactdb)" {
		t.Errorf("name = %q", e.Name())
	}
}

func TestRenderDelayHidesResult(t *testing.T) {
	db := enginetest.SmallDB(5000, 3)
	delay := 80 * time.Millisecond
	e := withDelay(delay)
	if err := e.Prepare(db, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	sess := e.OpenSession()
	defer sess.Close()
	start := time.Now()
	h, err := sess.StartQuery(enginetest.CountByCarrier())
	if err != nil {
		t.Fatal(err)
	}
	// Shortly after the backend finishes (small table → fast) the result
	// must still be hidden by the render delay.
	time.Sleep(delay / 4)
	if h.Snapshot() != nil {
		t.Error("result visible before render delay elapsed")
	}
	res := enginetest.WaitResult(t, h, 10*time.Second)
	if res == nil {
		t.Fatal("no result after render delay")
	}
	if elapsed := time.Since(start); elapsed < delay {
		t.Errorf("completed after %v, render delay is %v", elapsed, delay)
	}
	gt, _ := enginetest.Exact(db, enginetest.CountByCarrier())
	if err := enginetest.ResultsEqual(gt, res, 0); err != nil {
		t.Errorf("wrapped result mismatch: %v", err)
	}
}

func TestCancelShortCircuitsDelay(t *testing.T) {
	db := enginetest.SmallDB(5000, 5)
	e := withDelay(10 * time.Second)
	if err := e.Prepare(db, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	sess := e.OpenSession()
	defer sess.Close()
	h, err := sess.StartQuery(enginetest.CountByCarrier())
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	h.Cancel()
	select {
	case <-h.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("cancel did not short-circuit the render delay")
	}
	if h.Snapshot() != nil {
		t.Error("cancelled render should expose no result")
	}
}

func TestDelegation(t *testing.T) {
	db := enginetest.SmallDB(1000, 7)
	e := withDelay(time.Millisecond)
	if err := e.Prepare(db, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	sess := e.OpenSession()
	defer sess.Close()
	// These must all pass through without panics.
	sess.WorkflowStart()
	sess.LinkVizs("a", "b")
	sess.DeleteViz("a")
	sess.WorkflowEnd()
}
