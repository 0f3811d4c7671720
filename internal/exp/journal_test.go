package exp

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"denovosync/internal/stats"
)

func testRecord(key string) *Record {
	rs := &stats.RunStats{
		Protocol: "DeNovoSync", Workload: "counter", Cores: 16,
		ExecTime: 12345, TotalTraffic: 678,
		L1Hits: 10, L1Misses: 2, Events: 999,
	}
	rs.Time[0] = 1.5
	rs.Traffic[0] = 678
	return &Record{
		Key:      key,
		Fig:      "Figure 3 (16c)",
		Run:      Run{Kind: KindKernel, Workload: "tatas-counter", Protocol: "DS", Cores: 16, EqChecks: -1},
		Status:   StatusOK,
		Attempts: 1,
		Stats:    rs,
	}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.jsonl")
	j, prior, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	if len(prior) != 0 {
		t.Fatalf("fresh journal has %d prior records", len(prior))
	}
	want := testRecord("aaaa")
	if err := j.Append(want); err != nil {
		t.Fatalf("Append: %v", err)
	}
	failed := &Record{Key: "bbbb", Run: Run{Workload: "x"}, Status: StatusFailed, Attempts: 3, Error: "panic: boom"}
	if err := j.Append(failed); err != nil {
		t.Fatalf("Append failed-record: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	_, prior, err = OpenJournal(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(prior) != 2 {
		t.Fatalf("reloaded %d records, want 2", len(prior))
	}
	got := prior["aaaa"]
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	if !reflect.DeepEqual(prior["bbbb"], failed) {
		t.Errorf("failed record mismatch: %+v", prior["bbbb"])
	}
}

func TestJournalToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.jsonl")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(testRecord("aaaa")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a truncated trailing line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"bbbb","run":{"kind":"ker`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := LoadJournal(path)
	if err != nil {
		t.Fatalf("LoadJournal with torn tail: %v", err)
	}
	if len(recs) != 1 || recs[0].Key != "aaaa" {
		t.Fatalf("got %d records, want the 1 intact record", len(recs))
	}

	// But corruption in the middle is an error, not silent data loss.
	f, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("\n{\"key\":\"cccc\",\"run\":{},\"status\":\"ok\",\"attempts\":1}\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadJournal(path); err == nil || !strings.Contains(err.Error(), "journal") {
		t.Fatalf("mid-file corruption: got %v, want parse error", err)
	}
}

// TestJournalResumesAfterTornTail: a crash mid-append leaves either a
// partial line or a complete record without its newline. Resuming must
// not glue later appends onto those bytes: every intact record and every
// record appended after the resume must survive a reopen.
func TestJournalResumesAfterTornTail(t *testing.T) {
	unterminated, err := json.Marshal(testRecord("bbbb"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, tail string }{
		{"partial line", `{"key":"bbbb","run":{"kind":"ker`},
		{"record without newline", string(unterminated)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "grid.jsonl")
			j, _, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Append(testRecord("aaaa")); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			writeJournalAppend(t, path, tc.tail)

			j, prior, err := OpenJournal(path)
			if err != nil {
				t.Fatalf("resume over torn tail: %v", err)
			}
			if len(prior) != 1 || prior["aaaa"] == nil {
				t.Fatalf("resumed with %d records, want only the intact aaaa", len(prior))
			}
			for _, k := range []string{"cccc", "dddd"} {
				if err := j.Append(testRecord(k)); err != nil {
					t.Fatal(err)
				}
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}

			recs, err := LoadJournal(path)
			if err != nil {
				t.Fatalf("LoadJournal after resume: %v", err)
			}
			var keys []string
			for _, r := range recs {
				keys = append(keys, r.Key)
			}
			if got := strings.Join(keys, ","); got != "aaaa,cccc,dddd" {
				t.Fatalf("journal holds %s, want aaaa,cccc,dddd", got)
			}
			if _, prior, err = OpenJournal(path); err != nil || len(prior) != 3 {
				t.Fatalf("reopen: %d records, err %v; want 3", len(prior), err)
			}
		})
	}
}

func TestSanitizeStatsStripsHostDiagnostics(t *testing.T) {
	rs := &stats.RunStats{ExecTime: 5, PerCore: make([]stats.CoreTime, 16)}
	rs.SetWallTime(2 * time.Second)
	c := sanitizeStats(rs)
	if c.WallTime != 0 || c.EventsPerSec != 0 || c.PerCore != nil {
		t.Errorf("host diagnostics survived: %+v", c)
	}
	if c.ExecTime != 5 {
		t.Errorf("simulated results must survive: %+v", c)
	}
	if rs.WallTime == 0 {
		t.Errorf("sanitize must copy, not mutate the original")
	}
	if sanitizeStats(nil) != nil {
		t.Errorf("sanitize(nil) != nil")
	}
}
