package experiment

import (
	"os"
	"path/filepath"
	"testing"
)

// TestCheckpointResumeAfterTornTail: a sweep killed mid-write leaves a
// last line without its newline. A resumed sweep must record its next
// cell on a line of its own, so that a second resume still loads it.
func TestCheckpointResumeAfterTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tail.ckpt.jsonl")
	kept := RunResult{Scenario: "baseline", Rep: 0, Seed: 1, Scale: 0.01, HHours: 8}
	ckpt, err := OpenCheckpoint(path, false)
	if err != nil {
		t.Fatal(err)
	}
	ckpt.Record(kept)
	if err := ckpt.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"scenario":"baseline","rep":1,"se`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	resumed, err := OpenCheckpoint(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Len() != 1 {
		t.Fatalf("first resume loaded %d cells, want 1", resumed.Len())
	}
	fresh := RunResult{Scenario: "baseline", Rep: 1, Seed: 2, Scale: 0.01, HHours: 8}
	resumed.Record(fresh)
	if err := resumed.Close(); err != nil {
		t.Fatal(err)
	}

	again, err := OpenCheckpoint(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	for _, want := range []RunResult{kept, fresh} {
		got, ok := again.Lookup(Key{Scenario: want.Scenario, Rep: want.Rep})
		if !ok || got != want {
			t.Errorf("second resume: cell (%s, %d) = %+v, %v; want %+v", want.Scenario, want.Rep, got, ok, want)
		}
	}
}
