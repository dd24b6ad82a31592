package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// jsonlLog is the append-only JSONL file behind the job journal and the
// hint queue: one JSON record per line, folded and compacted on open, then
// appended to. Its owner serialises access and keeps the folded state.
type jsonlLog struct {
	name string   // error prefix ("journal", "hints")
	f    *os.File // nil once closed
	sync bool     // fsync after every append
}

// openLog opens (creating if absent) the log at path. Every line that
// decodes as a T is handed to fold in file order; a line that does not — a
// truncated final line, the signature of a crash mid-append, or garbage —
// is skipped. The file is then compacted: the records live returns
// atomically replace its contents, so it stays proportional to the live
// state, not to history.
func openLog[T any](name, path string, sync bool, fold func(T), live func() []T) (*jsonlLog, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if f, err := os.Open(path); err == nil {
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
		for sc.Scan() {
			var rec T
			if len(sc.Bytes()) > 0 && json.Unmarshal(sc.Bytes(), &rec) == nil {
				fold(rec)
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("%s: scanning %s: %w", name, path, err)
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("%s: %w", name, err)
	}

	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".compact.*")
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	w := bufio.NewWriter(tmp)
	for _, rec := range live() {
		line, merr := json.Marshal(rec)
		if merr != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return nil, fmt.Errorf("%s: %w", name, merr)
		}
		w.Write(line)
		w.WriteByte('\n')
	}
	if err = w.Flush(); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return nil, fmt.Errorf("%s: compacting: %w", name, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return &jsonlLog{name: name, f: f, sync: sync}, nil
}

// append writes rec as one line, syncing it to disk when the log was
// opened with sync.
func (l *jsonlLog) append(rec any) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("%s: %w", l.name, err)
	}
	if l.f == nil {
		return fmt.Errorf("%s: closed", l.name)
	}
	if _, err := l.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("%s: appending: %w", l.name, err)
	}
	if l.sync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("%s: syncing: %w", l.name, err)
		}
	}
	return nil
}

// close closes the file; further appends fail.
func (l *jsonlLog) close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
