package experiments

import (
	"fmt"
	"strings"

	"repro/internal/report"
	"repro/internal/unit"
	"repro/internal/workload"
)

// Table1 regenerates Table 1: training dataset sizes at Microsoft in
// 2020 and 24 months later.
// silod:sim-root
func Table1() *report.Table {
	t := report.NewTable("Table 1: dataset size and growth", "Task", "Year 2020", "In 24 months")
	for _, g := range workload.Table1DatasetGrowth() {
		t.AddRow(g.Task, g.Year2020.String(), g.In24Mo.String())
	}
	return t
}

// Table2 regenerates Table 2: mixed-precision ResNet-50 training speeds
// and the IO they demand.
// silod:sim-root
func Table2() *report.Table {
	t := report.NewTable("Table 2: ResNet-50 training speed and IO demand", "GPU", "Speed (images/s)", "IO")
	for _, r := range workload.Table2TrainingSpeeds() {
		t.AddRowf(r.GPU, fmt.Sprintf("%.0f", r.ImagesPS), r.IO.String())
	}
	return t
}

// Figure1 regenerates Figure 1: the GPU-compute versus storage-egress
// trend, including the headline growth factors (125x vs 12x).
// silod:sim-root
func Figure1() *report.Table {
	t := report.NewTable("Figure 1: GPU perf vs cloud storage egress limit",
		"Year", "GPU", "SP TFLOPS", "Egress (Gbps)")
	pts := workload.Figure1GPUTrend()
	for _, p := range pts {
		t.AddRowf(p.Year, p.GPU, fmt.Sprintf("%.1f", p.TFLOPS), fmt.Sprintf("%.0f", p.EgressGbps))
	}
	first, last := pts[0], pts[len(pts)-1]
	t.AddRow("growth", "",
		fmt.Sprintf("%.0fx", last.TFLOPS/first.TFLOPS),
		fmt.Sprintf("%.0fx", last.EgressGbps/first.EgressGbps))
	return t
}

// Figure3Result holds the cache-scaling series.
type Figure3Result struct {
	Servers   []int
	Actual    []float64 // GB/s
	Linear    []float64 // GB/s
	LocalOnly []float64 // GB/s if every byte were a local read
}

// Figure3 regenerates Figure 3: aggregate read throughput of the
// distributed cache as the cluster grows, with jobs demanding 1923 MB/s
// per 8-A100 server and datasets spread evenly over all servers.
// silod:sim-root
func Figure3() *Figure3Result {
	m := fabricModel{
		DemandPerServer: unit.MBpsOf(1923),
		LocalDiskBW:     unit.GBpsOf(3.2), // NVMe local read
		FabricNICBW:     unit.GBpsOf(2.5), // storage-fabric NIC (Figure 3's setting)
	}
	res := &Figure3Result{}
	for _, n := range []int{1, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50} {
		actual, linear := m.Throughput(n)
		res.Servers = append(res.Servers, n)
		res.Actual = append(res.Actual, float64(actual)/float64(unit.GB))
		res.Linear = append(res.Linear, float64(linear)/float64(unit.GB))
		localOnly, _ := fabricModel{
			DemandPerServer: m.DemandPerServer, LocalDiskBW: m.LocalDiskBW,
		}.Throughput(n)
		res.LocalOnly = append(res.LocalOnly, float64(localOnly)/float64(unit.GB))
	}
	return res
}

// fabricModel parameterizes the Figure 3 storage-fabric experiment: n
// servers each running jobs with aggregate IO demand DemandPerServer,
// datasets spread evenly across all servers' caches, so each server
// reads 1/n of its data locally and (n-1)/n from peers over the storage
// fabric.
type fabricModel struct {
	DemandPerServer unit.Bandwidth // e.g. 1923 MB/s (ResNet-50 on 8 A100s)
	LocalDiskBW     unit.Bandwidth // local NVMe read bandwidth per server
	FabricNICBW     unit.Bandwidth // per-server storage-fabric bandwidth
}

// Throughput returns the aggregate achievable read throughput with n
// servers, and the same under an idealized no-data-bottleneck (linear)
// scaling, both in bytes/s.
//
// Disk load per server is demand-independent of n (it serves 1/n for
// its own jobs plus (n-1)·(1/n) for peers), so the only n-dependent
// bottleneck is the NIC carrying the (n-1)/n peer fraction — with a
// datacenter storage fabric (NIC >= demand) throughput stays linear,
// which is the figure's conclusion.
func (m fabricModel) Throughput(n int) (actual, linear unit.Bandwidth) {
	if n <= 0 {
		return 0, 0
	}
	d := float64(m.DemandPerServer)
	linear = unit.Bandwidth(d * float64(n))
	scale := 1.0
	if m.LocalDiskBW > 0 && d > float64(m.LocalDiskBW) {
		scale = float64(m.LocalDiskBW) / d
	}
	peerFrac := float64(n-1) / float64(n)
	if m.FabricNICBW > 0 && peerFrac > 0 {
		nicScale := float64(m.FabricNICBW) / (d * peerFrac)
		if nicScale < scale {
			scale = nicScale
		}
	}
	if scale > 1 {
		scale = 1
	}
	return unit.Bandwidth(d * float64(n) * scale), linear
}

// Table renders the Figure 3 series.
func (r *Figure3Result) Table() *report.Table {
	t := report.NewTable("Figure 3: distributed cache throughput scaling",
		"Servers", "Linear (GB/s)", "Local read (GB/s)", "Peer read (GB/s)")
	for i, n := range r.Servers {
		t.AddRowf(n, r.Linear[i], r.LocalOnly[i], r.Actual[i])
	}
	return t
}

// Figure6 regenerates Figure 6: cache efficiency (MB/s saved per GB of
// cache) for the 11 model/dataset combinations.
// silod:sim-root
func Figure6() *report.Table {
	t := report.NewTable("Figure 6: cache efficiency on a V100",
		"Job", "f* (MB/s)", "Dataset", "Size", "Efficiency (MB/s per GB)")
	for _, j := range workload.Figure6Jobs() {
		eff := j.CacheEfficiency()
		var effStr string
		if eff < 0.001 {
			effStr = fmt.Sprintf("%.1e", eff)
		} else {
			effStr = fmt.Sprintf("%.2f", eff)
		}
		t.AddRow(
			j.Model.Name,
			fmt.Sprintf("%.0f", j.Model.IdealIOPerGPU.MBpsValue()),
			j.Dataset.Name,
			j.Dataset.Size.String(),
			effStr,
		)
	}
	return t
}

// RenderStatic renders every catalog-derived artifact at once.
// silod:sim-root
func RenderStatic() string {
	var b strings.Builder
	Table1().Render(&b)
	b.WriteString("\n")
	Table2().Render(&b)
	b.WriteString("\n")
	Figure1().Render(&b)
	b.WriteString("\n")
	Figure3().Table().Render(&b)
	b.WriteString("\n")
	Figure6().Render(&b)
	return b.String()
}
