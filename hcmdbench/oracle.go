package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/project"
)

// oracleFile pins, per workload, the sha256 of the output the program
// produces for defaultSeed. A performance change must leave these bytes
// alone; a change that alters simulation results has to re-pin them.
//
//go:embed oracle.json
var oracleFile []byte

type pinnedOutputs struct {
	Seed   uint64            `json:"seed"`
	SHA256 map[string]string `json:"sha256"`
}

// oracle judges one workload's outputs. With a pinned hash for the run's
// seed it compares against that; otherwise it falls back to an identity
// the program guarantees: the first output it is given (a fresh runner's,
// or an unforked reference computed before timing) becomes the reference
// every later output must equal.
type oracle struct {
	want   string
	pinned bool
}

func newOracle(workload string, seed uint64) (*oracle, error) {
	var p pinnedOutputs
	if err := json.Unmarshal(oracleFile, &p); err != nil {
		return nil, fmt.Errorf("oracle.json: %w", err)
	}
	o := &oracle{}
	if h, ok := p.SHA256[workload]; ok && seed == p.Seed {
		o.want, o.pinned = h, true
	}
	return o, nil
}

func hashOf(out []byte) string {
	sum := sha256.Sum256(out)
	return hex.EncodeToString(sum[:])
}

// check reports whether out is the expected output, adopting it as the
// reference when none is set yet.
func (o *oracle) check(out []byte) bool {
	h := hashOf(out)
	if o.want == "" {
		o.want = h
	}
	return h == o.want
}

// renderReport is a campaign's output: its report as JSON with the
// configuration zeroed (the configuration holds the dataset and matrix
// pointers, which are inputs, not results).
func renderReport(rep *project.Report) ([]byte, error) {
	r := *rep
	r.Config = project.Config{}
	return json.Marshal(&r)
}
