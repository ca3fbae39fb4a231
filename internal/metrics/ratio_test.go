package metrics

import (
	"sync"
	"testing"
)

func TestRatioCounterZero(t *testing.T) {
	var r RatioCounter
	if h, m := r.Counts(); h != 0 || m != 0 {
		t.Errorf("counts = %d/%d", h, m)
	}
}

func TestRatioCounterRatio(t *testing.T) {
	var r RatioCounter
	r.Hit()
	r.Hit()
	r.Hit()
	r.Miss()
	if h, m := r.Counts(); h != 3 || m != 1 {
		t.Errorf("counts = %d/%d", h, m)
	}
}

func TestRatioCounterConcurrent(t *testing.T) {
	var r RatioCounter
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if i%4 == 0 {
					r.Miss()
				} else {
					r.Hit()
				}
			}
		}()
	}
	wg.Wait()
	if h, m := r.Counts(); h != 6000 || m != 2000 {
		t.Errorf("counts = %d/%d, want 6000/2000", h, m)
	}
}
