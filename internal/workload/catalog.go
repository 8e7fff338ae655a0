// Package workload defines the models, datasets and job traces used by
// the SiloD evaluation. The catalogs encode the measurements reported in
// the paper (Tables 1, 2, 4 and Figure 6); where the paper omits a
// number (AlexNet, EfficientNetB0, InceptionV3 ideal IO) we fill in a
// profiling-plausible value and mark it as estimated.
package workload

import (
	"fmt"
	"sort"

	"repro/internal/unit"
)

// Model describes a neural network's training behaviour as SiloD sees
// it: the only properties that matter to scheduling are the ideal data
// ingestion rate f* (when IO is not the bottleneck) and the shape of a
// training step. Forward/backward math never appears — exactly the
// reduction the paper's "GPU acceleration" methodology makes.
type Model struct {
	Name string
	// IdealIOPerGPU is f* per V100 GPU: the data loading throughput the
	// model consumes when compute is the bottleneck (Figure 6 caption).
	IdealIOPerGPU unit.Bandwidth
	// BytesPerItem is the average size of one training sample.
	BytesPerItem unit.Bytes
	// BatchItems is the number of samples per mini-batch per GPU.
	BatchItems int
}

// StepBytes is the data consumed by one mini-batch on one GPU.
func (m Model) StepBytes() unit.Bytes {
	return m.BytesPerItem * unit.Bytes(m.BatchItems)
}

// StepTime is the compute time of one mini-batch on one V100 GPU: with
// an optimally pipelined loader, a compute-bound job consumes exactly
// StepBytes per StepTime, so StepTime = StepBytes / f*.
func (m Model) StepTime() unit.Duration {
	return unit.DivBandwidth(m.StepBytes(), m.IdealIOPerGPU)
}

// Dataset describes a training dataset. SiloD manages cache at dataset
// granularity (§6 "Dataset sharing").
type Dataset struct {
	Name string
	Size unit.Bytes
}

// Model catalog. Ideal IO demands for ResNet-50 (114 MB/s), ResNet-152
// (43 MB/s), EfficientNetB1 (69 MB/s), VLAD (10 MB/s) and BERT (2 MB/s)
// are from the Figure 6 caption; the rest are estimates in the same
// regime. Image samples average ~114 KB (Table 2: 114 MB/s at 1003
// images/s on one V100).
var modelCatalog = []Model{
	{Name: "ResNet-50", IdealIOPerGPU: unit.MBpsOf(114), BytesPerItem: 114 * unit.KB, BatchItems: 128},
	{Name: "ResNet-152", IdealIOPerGPU: unit.MBpsOf(43), BytesPerItem: 114 * unit.KB, BatchItems: 128},
	{Name: "EfficientNetB1", IdealIOPerGPU: unit.MBpsOf(69), BytesPerItem: 114 * unit.KB, BatchItems: 128},
	{Name: "EfficientNetB0", IdealIOPerGPU: unit.MBpsOf(90), BytesPerItem: 114 * unit.KB, BatchItems: 128},
	{Name: "AlexNet", IdealIOPerGPU: unit.MBpsOf(310), BytesPerItem: 114 * unit.KB, BatchItems: 256},
	{Name: "InceptionV3", IdealIOPerGPU: unit.MBpsOf(52), BytesPerItem: 114 * unit.KB, BatchItems: 128},
	{Name: "VLAD", IdealIOPerGPU: unit.MBpsOf(10), BytesPerItem: 1 * unit.MB, BatchItems: 32},
	{Name: "BERT", IdealIOPerGPU: unit.MBpsOf(2), BytesPerItem: 16 * unit.KB, BatchItems: 64},
}

// Dataset catalog (Table 4).
var datasetCatalog = []Dataset{
	{Name: "ImageNet-1k", Size: unit.GiB(143)},
	{Name: "ImageNet-22k", Size: unit.TiB(1.36)},
	{Name: "OpenImages", Size: unit.GiB(660)},
	{Name: "Youtube-8M", Size: unit.TiB(1.46)},
	{Name: "WebSearch", Size: unit.TiB(20.9)},
}

// ModelByName returns the named model from the catalog.
func ModelByName(name string) (Model, error) {
	for _, m := range modelCatalog {
		if m.Name == name {
			return m, nil
		}
	}
	return Model{}, fmt.Errorf("workload: unknown model %q", name)
}

// DatasetByName returns the named dataset from the catalog.
func DatasetByName(name string) (Dataset, error) {
	for _, d := range datasetCatalog {
		if d.Name == name {
			return d, nil
		}
	}
	return Dataset{}, fmt.Errorf("workload: unknown dataset %q", name)
}

// mustModel resolves a compile-time-known catalog name; a miss is a
// programming error in the caller, not a runtime condition.
func mustModel(name string) Model {
	m, err := ModelByName(name)
	if err != nil {
		panic(err)
	}
	return m
}

// mustDataset is mustModel for datasets.
func mustDataset(name string) Dataset {
	d, err := DatasetByName(name)
	if err != nil {
		panic(err)
	}
	return d
}

// Datasets returns a copy of the dataset catalog.
func Datasets() []Dataset { return append([]Dataset(nil), datasetCatalog...) }

// CatalogJob pairs a model with a dataset — one bar of Figure 6.
type CatalogJob struct {
	Model   Model
	Dataset Dataset
}

// CacheEfficiency is f*/d in MB/s per GB (Eq. 5): the remote IO saved
// per unit of cache allocated to this job at its ideal throughput.
func (j CatalogJob) CacheEfficiency() float64 {
	return j.Model.IdealIOPerGPU.MBpsValue() / (float64(j.Dataset.Size) / float64(unit.GB))
}

// Figure6Jobs returns the 11 model/dataset combinations of Figure 6 in
// descending cache-efficiency order, as the figure plots them.
func Figure6Jobs() []CatalogJob {
	imageModels := []string{"ResNet-50", "ResNet-152", "EfficientNetB1"}
	imageData := []string{"ImageNet-1k", "OpenImages", "ImageNet-22k"}
	var jobs []CatalogJob
	for _, mn := range imageModels {
		for _, dn := range imageData {
			jobs = append(jobs, CatalogJob{Model: mustModel(mn), Dataset: mustDataset(dn)})
		}
	}
	jobs = append(jobs,
		CatalogJob{Model: mustModel("VLAD"), Dataset: mustDataset("Youtube-8M")},
		CatalogJob{Model: mustModel("BERT"), Dataset: mustDataset("WebSearch")})
	sort.Slice(jobs, func(i, j int) bool {
		return jobs[i].CacheEfficiency() > jobs[j].CacheEfficiency()
	})
	return jobs
}

// DatasetGrowth is one row of Table 1: dataset sizes at Microsoft in
// early 2020 and their (planned) sizes 24 months later.
type DatasetGrowth struct {
	Task     string
	Year2020 unit.Bytes
	In24Mo   unit.Bytes
}

// Table1DatasetGrowth returns the Table 1 rows.
func Table1DatasetGrowth() []DatasetGrowth {
	return []DatasetGrowth{
		{"Task #1", unit.TiB(25), unit.TiB(100)},
		{"Task #2", unit.GiB(100), unit.TiB(1)},
		{"Task #3", unit.GiB(100), unit.TiB(3)},
		{"Task #4", unit.TiB(5), unit.TiB(10)},
		{"Task #5", unit.TiB(1.5), unit.TiB(400)},
	}
}

// TrainingSpeed is one row of Table 2: ResNet-50 on ImageNet with
// mixed-precision training.
type TrainingSpeed struct {
	GPU      string
	ImagesPS float64
	IO       unit.Bandwidth
}

// Table2TrainingSpeeds returns the Table 2 rows.
func Table2TrainingSpeeds() []TrainingSpeed {
	return []TrainingSpeed{
		{"1*V100", 1003, unit.MBpsOf(114)},
		{"1*A100", 2930, unit.MBpsOf(333)},
		{"8*V100", 7813, unit.MBpsOf(888)},
		{"8*A100", 16925, unit.MBpsOf(1923)},
		{"1*Gaudi2", 5325, unit.MBpsOf(614)},
	}
}

// GPUTrendPoint is one point of Figure 1: single-precision GPU compute
// versus the egress bandwidth limit of cloud storage accounts.
type GPUTrendPoint struct {
	Year       int
	GPU        string  // empty when no new GPU generation that year
	TFLOPS     float64 // single-precision (TF32 for A100/H100)
	EgressGbps float64 // highest supported storage-account egress
}

// Figure1GPUTrend returns the Figure 1 series: a 125x GPU-speed increase
// against a 12x egress-limit increase across 2015-2022.
func Figure1GPUTrend() []GPUTrendPoint {
	return []GPUTrendPoint{
		{Year: 2015, GPU: "K80", TFLOPS: 8.7, EgressGbps: 10},
		{Year: 2016, GPU: "P100", TFLOPS: 10.6, EgressGbps: 15},
		{Year: 2017, GPU: "V100", TFLOPS: 15.7, EgressGbps: 25},
		{Year: 2018, TFLOPS: 15.7, EgressGbps: 30},
		{Year: 2019, TFLOPS: 15.7, EgressGbps: 50},
		{Year: 2020, GPU: "A100", TFLOPS: 156, EgressGbps: 60},
		{Year: 2021, TFLOPS: 156, EgressGbps: 100},
		{Year: 2022, GPU: "H100", TFLOPS: 989, EgressGbps: 120},
	}
}
