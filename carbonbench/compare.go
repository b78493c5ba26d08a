package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// record is a run's result stored with the host it came from.
type record struct {
	Host     hostFingerprint `json:"host"`
	Workload string          `json:"workload"`
	Seed     int64           `json:"seed"`
	Trace    bool            `json:"trace"`
	Result   *result         `json:"result"`
}

// saveRecord writes the run's record into dir.
func saveRecord(dir string, o options, fp hostFingerprint, res *result) (string, error) {
	b, err := json.MarshalIndent(record{Host: fp, Workload: o.workload, Seed: o.seed, Trace: o.trace, Result: res}, "", "  ")
	if err != nil {
		return "", err
	}
	trace := 0
	if o.trace {
		trace = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("result-%s-%d-trace%d.json", o.workload, o.seed, trace))
	return path, os.WriteFile(path, b, 0o644)
}

func loadRecord(path string) (*record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Result == nil {
		return nil, fmt.Errorf("%s: no result", path)
	}
	return &r, nil
}

// compareRecords prints each metric of two saved runs side by side. Runs
// from different hosts are labelled informational: a difference there may
// be the host, not the code.
func compareRecords(basePath, newPath string, stdout io.Writer) error {
	base, err := loadRecord(basePath)
	if err != nil {
		return err
	}
	cur, err := loadRecord(newPath)
	if err != nil {
		return err
	}
	if base.Host == cur.Host {
		fmt.Fprintf(stdout, "same host %s: comparable\n", cur.Host)
	} else {
		fmt.Fprintf(stdout, "INFORMATIONAL ONLY: host fingerprints differ\n  base %s\n  new  %s\n", base.Host, cur.Host)
	}
	names := make([]string, 0, len(cur.Result.Metrics))
	for k := range cur.Result.Metrics {
		if _, ok := base.Result.Metrics[k]; ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, k := range names {
		b, c := base.Result.Metrics[k], cur.Result.Metrics[k]
		ratio := "-"
		if b.Value != 0 {
			ratio = fmt.Sprintf("%.3f", c.Value/b.Value)
		}
		fmt.Fprintf(stdout, "  %-34s %14.6g -> %14.6g %-13s ×%s\n", k, b.Value, c.Value, c.Unit, ratio)
	}
	return nil
}
