package dataset

import (
	"math/rand"
	"sync"
	"testing"
)

// TestBlockDirConcurrentPublishes: publishers race compare-and-swap
// publishes from nil into every slot of an empty directory, each in its own
// random order, while another goroutine grows the directory one chunk at a
// time across several chunks and a reader watches the slots. Exactly one
// publish per slot wins, a slot the reader once saw set never changes, and
// after the growth every slot still holds its winner's value.
func TestBlockDirConcurrentPublishes(t *testing.T) {
	const blocks, publishers = 6*dirChunk + 9, 4
	for round := 0; round < 20; round++ {
		var d BlockDir[int]
		vals := make([][]int, publishers)
		won := make([][]bool, publishers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for p := range publishers {
			vals[p], won[p] = make([]int, blocks), make([]bool, blocks)
			order := rand.New(rand.NewSource(int64(round*publishers + p))).Perm(blocks)
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for _, i := range order {
					won[p][i] = d.Slot(i).CompareAndSwap(nil, &vals[p][i])
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for c := 1; c*dirChunk < blocks+dirChunk; c++ {
				d.Slot(c*dirChunk - 1)
			}
		}()
		changed := make(chan int, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			seen := make([]*int, blocks)
			for pass := 0; pass < 50; pass++ {
				for i := range seen {
					v := d.Slot(i).Load()
					if seen[i] != nil && v != seen[i] {
						changed <- i
						return
					}
					seen[i] = v
				}
			}
		}()
		close(start)
		wg.Wait()
		select {
		case i := <-changed:
			t.Fatalf("round %d: slot %d changed after the reader saw it set", round, i)
		default:
		}
		for i := 0; i < blocks; i++ {
			winner := -1
			for p := range publishers {
				if won[p][i] {
					if winner >= 0 {
						t.Fatalf("round %d: slot %d won by publishers %d and %d", round, i, winner, p)
					}
					winner = p
				}
			}
			if winner < 0 {
				t.Fatalf("round %d: no publish into slot %d won", round, i)
			}
			if d.Slot(i).Load() != &vals[winner][i] {
				t.Fatalf("round %d: slot %d lost publisher %d's value", round, i, winner)
			}
		}
	}
}
