package exp

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"denovosync/internal/stats"
)

// Record statuses.
const (
	StatusOK     = "ok"
	StatusFailed = "failed"
)

// Record is one journaled run outcome: the full run description (so a
// journal is self-describing), the status, and the sanitized result.
type Record struct {
	Key      string          `json:"key"`
	Fig      string          `json:"fig,omitempty"` // owning plan ID
	Run      Run             `json:"run"`
	Status   string          `json:"status"`
	Attempts int             `json:"attempts"`
	Error    string          `json:"error,omitempty"`
	Stats    *stats.RunStats `json:"stats,omitempty"`

	// Aux is an opaque executor-defined payload (Engine.Executor) that
	// round-trips through the journal. The fuzz campaign stores each
	// scenario's coverage result here, so a corpus-accepted run journaled
	// mid-campaign is deduplicated on resume by run key *with* its
	// result — the campaign replays its acceptance decisions from the
	// journal instead of re-simulating.
	Aux json.RawMessage `json:"aux,omitempty"`
}

// sanitizeStats copies rs without its host-dependent diagnostics
// (wall time, events/sec) and without the bulky per-core breakdown, so
// journal contents depend only on the simulated configuration and two
// journals of the same grid are semantically identical regardless of
// host, parallelism, or interruption history.
func sanitizeStats(rs *stats.RunStats) *stats.RunStats {
	if rs == nil {
		return nil
	}
	c := *rs
	c.WallTime = 0
	c.EventsPerSec = 0
	c.PerCore = nil
	return &c
}

// Journal is an append-only JSONL result log. Every Append is written
// and fsynced as one line, so a crash loses at most the in-flight
// record — and a torn final line is tolerated on load.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
}

// OpenJournal loads any existing records from path and opens it for
// appending, creating it if needed. A torn final line (a crash
// mid-append) is cut off first, so the next Append starts on a fresh
// line instead of being glued onto the torn bytes; its run re-executes.
func OpenJournal(path string) (*Journal, map[string]*Record, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if err := trimTornTail(f); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("exp: trimming journal %s: %w", path, err)
	}
	prior, err := LoadJournal(path)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	byKey := make(map[string]*Record, len(prior))
	for _, rec := range prior {
		byKey[rec.Key] = rec // later lines win (e.g. a retried failure)
	}
	return &Journal{f: f, path: path}, byKey, nil
}

// trimTornTail truncates f to the end of its last newline-terminated
// line.
func trimTornTail(f *os.File) error {
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	buf := make([]byte, 64<<10)
	end := fi.Size()
	for end > 0 {
		n := min(int64(len(buf)), end)
		if _, err := f.ReadAt(buf[:n], end-n); err != nil {
			return err
		}
		if i := bytes.LastIndexByte(buf[:n], '\n'); i >= 0 {
			end += int64(i) + 1 - n
			break
		}
		end -= n
	}
	if end == fi.Size() {
		return nil
	}
	return f.Truncate(end)
}

// LoadJournal reads the records of a journal file in file order.
func LoadJournal(path string) ([]*Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	line := 0
	var parseErr error
	for sc.Scan() {
		line++
		if parseErr != nil {
			// A malformed line followed by more lines is corruption, not
			// a torn tail: refuse to silently drop results.
			return nil, parseErr
		}
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		rec := &Record{}
		if err := json.Unmarshal(b, rec); err != nil {
			parseErr = fmt.Errorf("exp: journal %s:%d: %w", path, line, err)
			continue
		}
		if rec.Key == "" {
			parseErr = fmt.Errorf("exp: journal %s:%d: record has no key", path, line)
			continue
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("exp: reading journal %s: %w", path, err)
	}
	// parseErr still set here means the *last* line was malformed — the
	// signature of a crash mid-append. Drop it; the run re-executes.
	return out, nil
}

// Append durably writes one record.
func (j *Journal) Append(rec *Record) error {
	rec.Stats = sanitizeStats(rec.Stats)
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("exp: encoding journal record %s: %w", rec.Key, err)
	}
	b = append(b, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(b); err != nil {
		return fmt.Errorf("exp: appending to journal %s: %w", j.path, err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("exp: syncing journal %s: %w", j.path, err)
	}
	return nil
}

// Close releases the append handle, reporting any deferred write error.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	if err != nil {
		return fmt.Errorf("exp: closing journal %s: %w", j.path, err)
	}
	return nil
}
