package groundtruth_test

import (
	"sync"
	"testing"

	"idebench/internal/enginetest"
	"idebench/internal/groundtruth"
	"idebench/internal/query"
)

func TestGetComputesAndCaches(t *testing.T) {
	db := enginetest.SmallDB(5000, 1)
	c := groundtruth.New(db)
	q := enginetest.CountByCarrier()
	r1, err := c.Get(q)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Complete {
		t.Error("ground truth must be complete")
	}
	var total float64
	for _, bv := range r1.Bins {
		total += bv.Values[0]
	}
	if total != 5000 {
		t.Errorf("total = %v, want 5000", total)
	}
	r2, err := c.Get(q)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("second Get should return the cached pointer")
	}
	if c.Size() != 1 {
		t.Errorf("cache size = %d", c.Size())
	}
}

func TestGetDistinguishesSignatures(t *testing.T) {
	db := enginetest.SmallDB(2000, 3)
	c := groundtruth.New(db)
	q1 := enginetest.CountByCarrier()
	q2 := enginetest.CountByCarrier()
	q2.Filter = query.Filter{Predicates: []query.Predicate{
		{Field: "origin_state", Op: query.OpIn, Values: []string{"CA"}},
	}}
	if _, err := c.Get(q1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(q2); err != nil {
		t.Fatal(err)
	}
	if c.Size() != 2 {
		t.Errorf("cache size = %d, want 2", c.Size())
	}
}

func TestGetInvalidQuery(t *testing.T) {
	db := enginetest.SmallDB(100, 5)
	c := groundtruth.New(db)
	q := enginetest.CountByCarrier()
	q.Table = "ghost"
	if _, err := c.Get(q); err == nil {
		t.Error("invalid query should error")
	}
	// The error is cached too.
	if _, err := c.Get(q); err == nil {
		t.Error("cached error should persist")
	}
}

func TestConcurrentGets(t *testing.T) {
	db := enginetest.SmallDB(50000, 7)
	c := groundtruth.New(db)
	q := enginetest.AvgDelayByDistance()
	var wg sync.WaitGroup
	results := make([]*query.Result, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := c.Get(q)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	for i := 1; i < 8; i++ {
		if results[i] != results[0] {
			t.Fatal("concurrent gets should share one computation")
		}
	}
	if c.Size() != 1 {
		t.Errorf("cache size = %d", c.Size())
	}
}
