package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// workloads.json pins what BENCHMARK.json has no room for: the server
// flags, each workload's shapes, loop, rate and latency limit, and the
// layer → end-to-end predictions each workload is meant to test.
//
//go:embed workloads.json
var workloadsJSON []byte

// Config is the parsed workloads.json.
type Config struct {
	ServerFlags []string    `json:"server_flags"`
	Workloads   []*Workload `json:"workloads"`
}

// Workload is one seeded traffic mix.
type Workload struct {
	Name     string `json:"name"`
	Why      string `json:"why"`
	Endpoint string `json:"endpoint"`
	Algebra  string `json:"algebra"`
	// Loop is "closed" (Clients callers, each waiting for its reply) or
	// "open" (Poisson arrivals at RatePerS for OpenShare of the run, then
	// a closed-loop saturation phase with Clients callers).
	Loop    string `json:"loop"`
	Clients int    `json:"clients"`

	QueryNt         [2]int  `json:"query_nt"`
	TargetNt        [2]int  `json:"target_nt"`
	TailNt          int     `json:"tail_nt"`
	TailShare       float64 `json:"tail_share"`
	ItemsPerRequest int     `json:"items_per_request"`
	Window          int     `json:"window"`

	RepeatShare      float64 `json:"repeat_share"`
	SharedQueryShare float64 `json:"shared_query_share"`
	StructureShare   float64 `json:"structure_share"`

	RatePerS  float64 `json:"rate_per_s"`
	OpenShare float64 `json:"open_share"`
	SLOms     float64 `json:"slo_ms"`

	VerifySample   int `json:"verify_sample"`
	WarmupRequests int `json:"warmup_requests"`

	Predictions []struct {
		Layer   string   `json:"layer"`
		Metrics []string `json:"metrics"`
		Moves   []string `json:"moves"`
	} `json:"predictions"`
}

func (w *Workload) partition() bool { return w.Algebra == "partition" }

// algebraField is the request body's "algebra" value ("" for max-plus, the
// server default, so max-plus bodies stay byte-identical to plain clients).
func (w *Workload) algebraField() string {
	if w.partition() {
		return "partition"
	}
	return ""
}

func loadConfig() (*Config, error) {
	var c Config
	if err := json.Unmarshal(workloadsJSON, &c); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	return &c, nil
}

func (c *Config) workload(name string) (*Workload, error) {
	for _, w := range c.Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
