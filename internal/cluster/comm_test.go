package cluster

import (
	"math"
	"sync/atomic"
	"testing"
)

func TestTopologyValidate(t *testing.T) {
	if err := (Topology{Nodes: 0, CoresPerNode: 4}).Validate(); err == nil {
		t.Fatal("accepted 0 nodes")
	}
	if err := (Topology{Nodes: 2, CoresPerNode: 3}).Validate(); err != nil {
		t.Fatal(err)
	}
	tp := Topology{Nodes: 2, CoresPerNode: 8}
	if tp.P() != 16 || tp.String() != "2x8" {
		t.Fatalf("P=%d String=%s", tp.P(), tp.String())
	}
}

func TestPaperPlatforms(t *testing.T) {
	ps := PaperPlatforms()
	if len(ps) != 4 {
		t.Fatalf("want 4 platforms, got %d", len(ps))
	}
	wantP := []int{1, 4, 16, 64}
	for i, p := range ps {
		if p.Topology.P() != wantP[i] {
			t.Fatalf("platform %d has P=%d, want %d", i, p.Topology.P(), wantP[i])
		}
	}
	// Multi-node platforms must have a strictly higher word cost.
	if !(ps[2].WordTime() > ps[1].WordTime()) {
		t.Fatal("inter-node word time not higher than intra-node")
	}
}

func TestRanksAndNodes(t *testing.T) {
	c := NewComm(NewPlatform(2, 3))
	var nodes [6]int32
	c.Run(func(r *Rank) {
		atomic.StoreInt32(&nodes[r.ID], int32(r.Node()))
		if r.P() != 6 {
			t.Errorf("P()=%d", r.P())
		}
	})
	want := []int32{0, 0, 0, 1, 1, 1}
	for i, w := range want {
		if nodes[i] != w {
			t.Fatalf("rank %d on node %d, want %d", i, nodes[i], w)
		}
	}
}

func TestReduceSumsToRoot(t *testing.T) {
	c := NewComm(NewPlatform(1, 5))
	results := make([][]float64, 5)
	c.Run(func(r *Rank) {
		vec := []float64{float64(r.ID), 1, -float64(r.ID)}
		r.Reduce(vec, 2)
		results[r.ID] = vec
	})
	// Root (rank 2) holds [0+1+2+3+4, 5, -(0+1+2+3+4)] = [10, 5, -10].
	if results[2][0] != 10 || results[2][1] != 5 || results[2][2] != -10 {
		t.Fatalf("root result %v", results[2])
	}
	// Non-roots keep their own contribution.
	if results[0][0] != 0 || results[4][0] != 4 {
		t.Fatal("non-root buffers were modified")
	}
}

func TestBroadcastDistributes(t *testing.T) {
	c := NewComm(NewPlatform(1, 4))
	results := make([][]float64, 4)
	c.Run(func(r *Rank) {
		vec := make([]float64, 3)
		if r.ID == 1 {
			vec = []float64{7, 8, 9}
		}
		r.Broadcast(vec, 1)
		results[r.ID] = vec
	})
	for id, v := range results {
		if v[0] != 7 || v[1] != 8 || v[2] != 9 {
			t.Fatalf("rank %d received %v", id, v)
		}
	}
}

func TestAllreduce(t *testing.T) {
	c := NewComm(NewPlatform(2, 2))
	results := make([][]float64, 4)
	st := c.Run(func(r *Rank) {
		vec := []float64{1, float64(r.ID)}
		r.Allreduce(vec)
		results[r.ID] = vec
	})
	for id, v := range results {
		if v[0] != 4 || v[1] != 6 {
			t.Fatalf("rank %d allreduce %v", id, v)
		}
	}
	if st.Phases != 2 {
		t.Fatalf("Allreduce charged %d phases, want 2", st.Phases)
	}
}

func TestSequentialCollectivesNoCrosstalk(t *testing.T) {
	// Back-to-back collectives with different payloads: a regression test
	// for phase data leaking between rounds.
	c := NewComm(NewPlatform(1, 8))
	const rounds = 50
	fail := make(chan string, 8)
	c.Run(func(r *Rank) {
		for k := 0; k < rounds; k++ {
			vec := []float64{float64(k*100 + r.ID)}
			r.Reduce(vec, 0)
			if r.ID == 0 {
				want := float64(k*100*8 + 28) // Σ ids = 28
				if vec[0] != want {
					fail <- "reduce round mismatch"
					return
				}
			}
			//lint:ignore collective the early return above only fires when the test is already failing
			r.Broadcast(vec, 0)
			if vec[0] != float64(k*100*8+28) {
				fail <- "broadcast round mismatch"
				return
			}
		}
	})
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
}

func TestFlopAccounting(t *testing.T) {
	c := NewComm(NewPlatform(1, 3))
	st := c.Run(func(r *Rank) {
		r.AddFlops(int64(100 * (r.ID + 1)))
		r.Barrier()
		r.AddFlops(10)
	})
	if st.TotalFlops != 100+200+300+30 {
		t.Fatalf("TotalFlops=%d", st.TotalFlops)
	}
	if st.MaxFlops != 310 {
		t.Fatalf("MaxFlops=%d", st.MaxFlops)
	}
	if st.FlopsPerRank[2] != 310 {
		t.Fatalf("rank2 flops=%d", st.FlopsPerRank[2])
	}
}

func TestModeledTimeBulkSynchronous(t *testing.T) {
	// One phase: time = max(flops)·c_f + words·c_w + latency·hops,
	// plus the tail after the collective.
	p := NewPlatform(1, 4)
	c := NewComm(p)
	st := c.Run(func(r *Rank) {
		r.AddFlops(int64(1000 * (r.ID + 1))) // max 4000
		vec := make([]float64, 8)
		r.Reduce(vec, 0)
		r.AddFlops(500) // uniform tail
	})
	hops := math.Ceil(math.Log2(4))
	want := 4000*p.Cost.FlopTime + 8*p.WordTime() + hops*p.Latency() + 500*p.Cost.FlopTime
	if math.Abs(st.ModeledTime-want)/want > 1e-12 {
		t.Fatalf("ModeledTime=%v, want %v", st.ModeledTime, want)
	}
	if st.PathWords != 8 || st.TotalWords != 8*3 {
		t.Fatalf("words: path=%d total=%d", st.PathWords, st.TotalWords)
	}
}

func TestModeledEnergy(t *testing.T) {
	p := NewPlatform(2, 2)
	c := NewComm(p)
	st := c.Run(func(r *Rank) {
		r.AddFlops(100)
		vec := make([]float64, 4)
		r.Reduce(vec, 0)
	})
	want := 400*p.Cost.FlopEnergy + float64(4*3)*p.WordEnergy()
	if math.Abs(st.ModeledEnergy-want)/want > 1e-12 {
		t.Fatalf("energy %v, want %v", st.ModeledEnergy, want)
	}
}

func TestSingleRankNoCommCost(t *testing.T) {
	p := NewPlatform(1, 1)
	c := NewComm(p)
	st := c.Run(func(r *Rank) {
		r.AddFlops(1234)
		vec := []float64{1}
		r.Allreduce(vec)
		if vec[0] != 1 {
			t.Error("single-rank allreduce changed data")
		}
	})
	if st.TotalWords != 0 {
		t.Fatalf("single rank moved %d words", st.TotalWords)
	}
	if st.TotalFlops != 1234 {
		t.Fatalf("flops %d", st.TotalFlops)
	}
}

func TestCommReusableAcrossRuns(t *testing.T) {
	c := NewComm(NewPlatform(1, 2))
	st1 := c.Run(func(r *Rank) { r.AddFlops(10); r.Barrier() })
	st2 := c.Run(func(r *Rank) { r.AddFlops(20); r.Barrier() })
	if st1.TotalFlops != 20 || st2.TotalFlops != 40 {
		t.Fatalf("stats leaked across runs: %d, %d", st1.TotalFlops, st2.TotalFlops)
	}
	if st1.Phases != 1 || st2.Phases != 1 {
		t.Fatal("phase counts leaked across runs")
	}
}

func TestWallClockMeasured(t *testing.T) {
	c := NewComm(NewPlatform(1, 2))
	st := c.Run(func(r *Rank) {
		s := 0.0
		for i := 0; i < 100000; i++ {
			s += float64(i)
		}
		_ = s
	})
	if st.Wall <= 0 {
		t.Fatal("wall clock not measured")
	}
}

func BenchmarkAllreduce64(b *testing.B) {
	c := NewComm(NewPlatform(8, 8))
	vec := make([]float64, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Run(func(r *Rank) {
			local := make([]float64, len(vec))
			r.Allreduce(local)
		})
	}
}
