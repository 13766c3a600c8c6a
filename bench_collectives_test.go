package hypermm

import "testing"

// BenchmarkCollective_* is the machine-scaling companion to
// BenchmarkTable1_*: the same measured (t_s, t_w) coefficients, but
// swept over machine sizes p=8 and p=64 for the collectives the matmul
// algorithms lean on hardest (broadcast, all-gather and scatter carry
// the 2D/3D input distribution, all-to-all personalized the 3-D All
// redistribution, reduce-scatter the 3D combine). The bench trajectory
// persists these as BENCH_collectives.json so regressions in the
// collective schedules show up as sim_a/sim_b jumps between commits,
// and host-side bookkeeping regressions as allocs/op jumps.

func benchCollectiveP(b *testing.B, c Collective, p int) {
	// M scales with p so per-node payloads stay comparable across
	// machine sizes.
	m := 12 * p
	b.ReportAllocs()
	var a, bw float64
	for i := 0; i < b.N; i++ {
		var err error
		a, bw, err = MeasuredCollective(c, p, m, OnePort)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(a, "sim_a")
	b.ReportMetric(bw, "sim_b")
}

func BenchmarkCollective_Bcast_P8(b *testing.B)  { benchCollectiveP(b, OneToAllBcast, 8) }
func BenchmarkCollective_Bcast_P64(b *testing.B) { benchCollectiveP(b, OneToAllBcast, 64) }

func BenchmarkCollective_AllGather_P8(b *testing.B)  { benchCollectiveP(b, AllToAllBcast, 8) }
func BenchmarkCollective_AllGather_P64(b *testing.B) { benchCollectiveP(b, AllToAllBcast, 64) }

func BenchmarkCollective_AllToAll_P8(b *testing.B)  { benchCollectiveP(b, AllToAllPersonalized, 8) }
func BenchmarkCollective_AllToAll_P64(b *testing.B) { benchCollectiveP(b, AllToAllPersonalized, 64) }

func BenchmarkCollective_Scatter_P8(b *testing.B)  { benchCollectiveP(b, OneToAllPersonalized, 8) }
func BenchmarkCollective_Scatter_P64(b *testing.B) { benchCollectiveP(b, OneToAllPersonalized, 64) }

func BenchmarkCollective_ReduceScatter_P8(b *testing.B)  { benchCollectiveP(b, AllToAllReduce, 8) }
func BenchmarkCollective_ReduceScatter_P64(b *testing.B) { benchCollectiveP(b, AllToAllReduce, 64) }
