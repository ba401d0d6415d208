package server

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"cacheeval/internal/jobs"
	"cacheeval/internal/obs"
)

// progressRate matches the one wall-clock-dependent value on the wire: a
// progress event's running refs/second.
var progressRate = regexp.MustCompile(`"refs_per_sec":[^,}]+`)

// TestJobEventWireGolden pins the job stream's engine-event vocabulary byte
// for byte: one event of each of the five engine kinds (plus the
// omitempty edge case) is published through the job sink
// and jobs.Job.Publish, and each resulting NDJSON line must match
// testdata/job_events.golden.ndjson. The golden is the wire contract
// cachewatch and other clients decode, so it is edited by hand, never
// regenerated from the code under test. Elapsed times are zeroed and a
// progress event's refs_per_sec is masked, since both read the clock.
func TestJobEventWireGolden(t *testing.T) {
	reg := jobs.NewRegistry(jobs.Config{})
	job, err := reg.Create("sweep", "req-golden")
	if err != nil {
		t.Fatal(err)
	}
	p := jobSink(context.Background(), job)
	p.MinProgressInterval = 0 // every progress event reaches the wire

	for _, e := range []obs.Event{
		{Kind: obs.KindRunStart, Stage: "sweep:FGO1", Total: 1000},
		{Kind: obs.KindRunStart, Stage: "simulate:FGO1"}, // unknown length: total_refs omitted
		{Kind: obs.KindProgress, Stage: "sweep:FGO1", Refs: 500},
		{Kind: obs.KindProgress, Stage: "simulate:FGO1", Refs: 65536},
		{Kind: obs.KindRunEnd, Stage: "sweep:FGO1", Refs: 1000, Elapsed: 2 * time.Second},
		{Kind: obs.KindMissCauses, Stage: "sweep:FGO1:1024", Compulsory: 11, Capacity: 22, Conflict: 33},
		{Kind: obs.KindHierarchyRun, Stage: "sweep:FGO1:1024", L2Fetches: 10, L2FetchMisses: 2, L2Writes: 5, L2WriteMisses: 1, VictimHits: 7},
	} {
		p.Observe(e)
	}

	evs, _, _, _ := job.EventsSince(0)
	var got bytes.Buffer
	for _, ev := range evs {
		ev.ElapsedMS = 0
		line, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Type == obs.EventProgress {
			line = progressRate.ReplaceAll(line, []byte(`"refs_per_sec":"masked"`))
		}
		got.Write(line)
		got.WriteByte('\n')
	}

	want, err := os.ReadFile(filepath.Join("testdata", "job_events.golden.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("job event wire format drifted\ngot:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}
