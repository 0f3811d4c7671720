package exp

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"denovosync/internal/sim"
	"denovosync/internal/stats"
)

func okRecord(r Run, exec sim.Cycle) *Record {
	return &Record{
		Key: r.Key(), Run: r, Status: StatusOK, Attempts: 1,
		Stats: &stats.RunStats{ExecTime: exec, TotalTraffic: 42},
	}
}

func failedRecord(r Run, attempts int, msg string) *Record {
	return &Record{Key: r.Key(), Run: r, Status: StatusFailed, Attempts: attempts, Error: msg}
}

func TestResultFingerprintIgnoresHostDetail(t *testing.T) {
	r := fakePlan(1).Runs[0]
	a := okRecord(r, 1000)
	b := okRecord(r, 1000)
	b.Attempts = 3                  // retried elsewhere
	b.Fig = "another plan"          // owning plan differs
	b.Error = ""                    // (already empty)
	b.Stats.WallTime = time.Second  // host diagnostics
	b.Stats.EventsPerSec = 123456.0 // stripped by sanitize
	if a.ResultFingerprint() != b.ResultFingerprint() {
		t.Fatalf("fingerprint depends on host/session detail")
	}
	c := okRecord(r, 1001) // a genuinely different result
	if a.ResultFingerprint() == c.ResultFingerprint() {
		t.Fatalf("fingerprint does not see a result difference")
	}
	d := okRecord(r, 1000)
	d.Aux = json.RawMessage(`{"verdict":"other"}`)
	if a.ResultFingerprint() == d.ResultFingerprint() {
		t.Fatalf("fingerprint does not see an aux difference")
	}
}

// The core merge: three journals covering a 6-run grid with overlap, one
// failure superseded by a success, and clean dedup of identical results.
func TestReconcileMergesDisjointAndOverlapping(t *testing.T) {
	plan := fakePlan(6)
	rs := plan.Runs
	a := Source{Name: "worker-a", Records: []*Record{
		okRecord(rs[0], 1000), okRecord(rs[1], 1001), failedRecord(rs[2], 2, "panic: host a"),
	}}
	b := Source{Name: "worker-b", Records: []*Record{
		okRecord(rs[1], 1001), // duplicate of a's result
		okRecord(rs[2], 1002), // supersedes a's failure
		okRecord(rs[3], 1003),
	}}
	c := Source{Name: "worker-c", Records: []*Record{
		okRecord(rs[4], 1004), okRecord(rs[5], 1005),
	}}
	records, sum := Reconcile([]Source{a, b, c})
	if err := sum.Err(); err != nil {
		t.Fatalf("clean merge reported conflicts: %v", err)
	}
	if sum.Unique != 6 || sum.Records != 8 {
		t.Fatalf("summary %+v: want 6 unique of 8 records", sum)
	}
	if sum.Duplicates != 1 || sum.Superseded != 1 {
		t.Fatalf("summary %+v: want 1 duplicate, 1 superseded", sum)
	}
	for i, r := range rs {
		rec := records[r.Key()]
		if rec == nil || rec.Status != StatusOK {
			t.Fatalf("run %d missing or failed after merge: %+v", i, rec)
		}
	}
	if records[rs[2].Key()].Stats.ExecTime != 1002 {
		t.Fatalf("superseded failure did not adopt the success")
	}
}

// Order independence: a success supersedes a failure regardless of which
// journal is read first.
func TestReconcileSuccessBeatsFailureEitherOrder(t *testing.T) {
	r := fakePlan(1).Runs[0]
	ok := Source{Name: "ok", Records: []*Record{okRecord(r, 1000)}}
	bad := Source{Name: "bad", Records: []*Record{failedRecord(r, 3, "boom")}}
	for _, order := range [][]Source{{ok, bad}, {bad, ok}} {
		records, sum := Reconcile(order)
		if rec := records[r.Key()]; rec.Status != StatusOK {
			t.Fatalf("order %s+%s: merged status %s", order[0].Name, order[1].Name, rec.Status)
		}
		if sum.Superseded != 1 {
			t.Fatalf("order %s+%s: superseded=%d", order[0].Name, order[1].Name, sum.Superseded)
		}
	}
}

func TestReconcileCompetingFailuresKeepMostAttempts(t *testing.T) {
	r := fakePlan(1).Runs[0]
	records, sum := Reconcile([]Source{
		{Name: "a", Records: []*Record{failedRecord(r, 1, "first")}},
		{Name: "b", Records: []*Record{failedRecord(r, 4, "second host, different stack")}},
	})
	if err := sum.Err(); err != nil {
		t.Fatalf("differing failure text must not be a conflict: %v", err)
	}
	if rec := records[r.Key()]; rec.Attempts != 4 {
		t.Fatalf("kept the lesser failure: %+v", rec)
	}
}

// The acceptance-criteria case: an identical key with a different result
// is escalated as a structured determinism finding, never merged away.
func TestReconcileConflictIsDeterminismFinding(t *testing.T) {
	plan := fakePlan(2)
	r := plan.Runs[0]
	good := Source{Name: "journal-a", Records: []*Record{okRecord(r, 1000), okRecord(plan.Runs[1], 1001)}}
	evil := Source{Name: "journal-b", Records: []*Record{okRecord(r, 9999)}} // same key, different result
	records, sum := Reconcile([]Source{good, evil})

	if len(sum.Conflicts) != 1 {
		t.Fatalf("want exactly 1 conflict, got %+v", sum.Conflicts)
	}
	c := sum.Conflicts[0]
	if c.Key != r.Key() {
		t.Errorf("conflict names key %s, want %s", c.Key, r.Key())
	}
	if len(c.Results) != 2 {
		t.Fatalf("conflict must list both results: %+v", c.Results)
	}
	blames := c.Results[0].Sources[0] + "+" + c.Results[1].Sources[0]
	if !strings.Contains(blames, "journal-a") || !strings.Contains(blames, "journal-b") {
		t.Errorf("conflict does not blame both journals: %+v", c)
	}
	err := sum.Err()
	if err == nil || !strings.Contains(err.Error(), "determinism conflict") || !strings.Contains(err.Error(), r.Key()) {
		t.Errorf("summary error is not a loud determinism finding: %v", err)
	}
	// The merged map still carries the key (first-seen) for inspection.
	if records[r.Key()] == nil {
		t.Errorf("conflicted key dropped from the merged set")
	}
	// The finding round-trips as JSON (it is part of MergeSummary).
	b, jerr := json.Marshal(c)
	if jerr != nil {
		t.Fatalf("conflict does not marshal: %v", jerr)
	}
	var back Conflict
	if err := json.Unmarshal(b, &back); err != nil || back.Key != c.Key {
		t.Fatalf("conflict does not round-trip: %v", err)
	}
}

// End to end over real files, including a salvaged damaged journal, and
// the single-journal equivalence with OpenJournal's prior map.
func TestReconcileJournals(t *testing.T) {
	plan := fakePlan(4)
	dir := t.TempDir()
	pathA := filepath.Join(dir, "a.jsonl")
	pathB := filepath.Join(dir, "b.jsonl")

	jA, _, err := OpenJournal(pathA)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range plan.Runs[:2] {
		if err := jA.Append(okRecord(r, sim.Cycle(1000+r.Iters))); err != nil {
			t.Fatal(err)
		}
	}
	if err := jA.Close(); err != nil {
		t.Fatal(err)
	}
	jB, _, err := OpenJournal(pathB)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range plan.Runs[1:] { // overlaps run 1
		if err := jB.Append(okRecord(r, sim.Cycle(1000+r.Iters))); err != nil {
			t.Fatal(err)
		}
	}
	if err := jB.Close(); err != nil {
		t.Fatal(err)
	}

	records, sum, err := ReconcileJournals([]string{pathA, pathB}, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := sum.Err(); err != nil {
		t.Fatal(err)
	}
	if sum.Unique != 4 || sum.Duplicates != 1 {
		t.Fatalf("summary %+v: want 4 unique, 1 duplicate", sum)
	}
	if len(records) != 4 {
		t.Fatalf("merged %d records, want 4", len(records))
	}

	// Damage journal B mid-file: strict reconcile refuses, salvage heals.
	writeJournalAppend(t, pathB, "\nCORRUPT LINE\n"+mustLine(t, okRecord(plan.Runs[0], 1001))+"\n")
	if _, _, err := ReconcileJournals([]string{pathA, pathB}, false); err == nil {
		t.Fatalf("strict reconcile accepted a corrupt journal")
	}
	records, sum, err = ReconcileJournals([]string{pathA, pathB}, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := sum.Err(); err != nil {
		t.Fatal(err)
	}
	if len(records) != 4 {
		t.Fatalf("salvaged merge has %d records, want 4", len(records))
	}
	// The repair wrote its sidecar.
	if _, _, err := ReconcileJournals([]string{SidecarPath(pathB)}, false); err == nil {
		t.Logf("note: sidecar parses as a journal (harmless)")
	}
}

func mustLine(t *testing.T, rec *Record) string {
	t.Helper()
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func writeJournalAppend(t *testing.T, path, s string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(s); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
