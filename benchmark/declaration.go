package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// declaration is ../BENCHMARK.json: the single place metric names, units,
// directions and regression bounds are declared. The program reads it so
// that a metric it emits but the file does not declare (or the reverse)
// is an error rather than a silent drift.
type declaration struct {
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadDeclaration(path string) (*declaration, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(d.EndToEnd) == 0 || len(d.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: declares no metrics", path)
	}
	return &d, nil
}

func (d *declaration) unit(name string) string {
	for _, m := range append(d.EndToEnd, d.PerLayer...) {
		if m.Name == name {
			return m.Unit
		}
	}
	return "?"
}

// contractLine renders the one JSON object the driver reads: exactly the
// keys correct, attempted, failed and metrics, the metrics being every
// declared end-to-end metric (untraced) or every declared per-layer
// metric (traced). An end-to-end metric the run did not produce is an
// error. A per-layer metric the run did not produce reads 0: the workload
// never entered that layer, which is itself the finding (README.md,
// "Layers a workload does not enter").
func (d *declaration) contractLine(res *result, traced bool) (string, error) {
	decls := d.EndToEnd
	if traced {
		decls = d.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	declared := map[string]bool{}
	metrics := map[string]value{}
	for _, m := range decls {
		declared[m.Name] = true
		v, ok := res.metrics[m.Name]
		if !ok && !traced {
			return "", fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		metrics[m.Name] = value{v, m.Unit}
	}
	for name := range res.metrics {
		if !declared[name] {
			return "", fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(res.wrong) == 0, res.attempted, res.failed, metrics})
	return string(b), err
}
