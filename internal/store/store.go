// Package store is the persistence tier under secserved's in-memory
// caches: a disk-backed content-addressed object store (one file per
// canonical key, checksummed JSON envelope, atomic writes, LRU-by-atime
// eviction, corrupt-entry quarantine), an append-only job journal that
// lets a restarted node replay work it had accepted but not finished, and
// a hint queue of results owed to peers that were down (hinted handoff).
// The journal and the hint queue share one JSONL log, compacted on open;
// the journal syncs every append, the hint queue does not.
//
// The store is deliberately dumb about what it holds: keys are the
// service's canonical content addresses (hex SHA-256 over the canonical
// encodings of architecture, options and analyzer) and payloads are opaque
// JSON. Because an analysis is a pure function of its key, entries never
// need invalidation — only eviction when the size budget is exceeded and
// quarantine when the bytes on disk stop matching their checksum.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// Schema versions the on-disk envelope; entries written under a different
// schema are quarantined, not misread.
const Schema = "secstore/v1"

// Directory layout under Options.Dir.
const (
	objectsDir    = "objects"
	quarantineDir = "quarantine"
	tmpDir        = "tmp"
)

// envelope is the on-disk shape of one entry. The checksum covers exactly
// the payload bytes, so a flipped bit in the result — the part that gets
// served — is always caught; the envelope fields themselves are validated
// structurally (schema, key match).
type envelope struct {
	Schema string `json:"schema"`
	Key    string `json:"key"`
	SHA256 string `json:"sha256"`
	// CreatedUnixNano records the write time (diagnostics only; recency for
	// eviction is tracked by access, not creation).
	CreatedUnixNano int64           `json:"created_unix_nano"`
	Payload         json.RawMessage `json:"payload"`
}

// Options configures a Store.
type Options struct {
	// Dir is the store root; it is created if absent.
	Dir string
	// MaxBytes bounds the total size of stored entries; exceeding it evicts
	// least-recently-accessed entries. 0 means unbounded.
	MaxBytes int64
}

// Stats is a point-in-time snapshot of the store counters.
type Stats struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Puts        int64 `json:"puts"`
	Evictions   int64 `json:"evictions"`
	Quarantined int64 `json:"quarantined"`
	Entries     int   `json:"entries"`
	Bytes       int64 `json:"bytes"`
	MaxBytes    int64 `json:"max_bytes,omitempty"`
}

// entry is the in-memory index record for one on-disk object.
type entry struct {
	size  int64
	atime time.Time
}

// Store is a disk-backed content-addressed object store. All methods are
// safe for concurrent use and safe on a nil receiver (every operation is a
// no-op miss), so callers can wire it unconditionally.
type Store struct {
	dir      string
	maxBytes int64

	mu      sync.Mutex
	entries map[string]*entry // object hash → size/atime
	bytes   int64

	hits        int64
	misses      int64
	puts        int64
	evictions   int64
	quarantined int64
}

// Open creates or reopens the store at opts.Dir, indexing existing entries.
// File modification times seed the access order, so eviction recency
// survives restarts.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("store: no directory given")
	}
	for _, sub := range []string{objectsDir, quarantineDir, tmpDir} {
		if err := os.MkdirAll(filepath.Join(opts.Dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	s := &Store{
		dir:      opts.Dir,
		maxBytes: opts.MaxBytes,
		entries:  make(map[string]*entry),
	}
	root := filepath.Join(opts.Dir, objectsDir)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(d.Name(), ".json") {
			return err
		}
		info, ierr := d.Info()
		if ierr != nil {
			return nil // raced with an eviction; skip
		}
		h := strings.TrimSuffix(d.Name(), ".json")
		s.entries[h] = &entry{size: info.Size(), atime: info.ModTime()}
		s.bytes += info.Size()
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: indexing %s: %w", root, err)
	}
	// A previous crash can leave temp files behind; they were never visible
	// as objects, so dropping them is safe.
	if tmps, err := os.ReadDir(filepath.Join(opts.Dir, tmpDir)); err == nil {
		for _, t := range tmps {
			_ = os.Remove(filepath.Join(opts.Dir, tmpDir, t.Name()))
		}
	}
	return s, nil
}

// Dir returns the store root ("" for a nil store).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// hashOf derives the object file name from a key. Keys are usually already
// hex digests; hashing again keeps arbitrary keys filesystem-safe without
// trusting the caller.
func hashOf(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// objectPath fans objects out over 256 subdirectories so no single
// directory grows unboundedly.
func (s *Store) objectPath(h string) string {
	return filepath.Join(s.dir, objectsDir, h[:2], h+".json")
}

// Get returns the payload stored under key and refreshes its access time.
// A missing entry is a plain miss; an entry that fails validation —
// unreadable, truncated, checksum mismatch, wrong schema, wrong key — is
// quarantined (moved aside for forensics, never deleted) and reported as a
// miss so the caller recomputes instead of failing.
func (s *Store) Get(key string) ([]byte, bool) {
	if s == nil {
		return nil, false
	}
	h := hashOf(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	ent, ok := s.entries[h]
	if !ok {
		s.misses++
		return nil, false
	}
	data, err := os.ReadFile(s.objectPath(h))
	if err != nil {
		// The file vanished under us (external cleanup); drop the index entry.
		s.dropLocked(h, ent)
		s.misses++
		return nil, false
	}
	payload, reason := validate(data, key)
	if reason != "" {
		s.quarantineLocked(h, ent, reason)
		s.misses++
		return nil, false
	}
	now := time.Now()
	ent.atime = now
	// Persist recency so a restarted store evicts in the same order; best
	// effort — a read-only filesystem only loses cross-restart recency.
	_ = os.Chtimes(s.objectPath(h), now, now)
	s.hits++
	return payload, true
}

// validate checks one on-disk object against the key it should hold,
// returning the payload or a non-empty quarantine reason.
func validate(data []byte, key string) (json.RawMessage, string) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, "unparseable envelope (truncated or corrupt)"
	}
	if env.Schema != Schema {
		return nil, fmt.Sprintf("schema %q, want %q", env.Schema, Schema)
	}
	if env.Key != key {
		return nil, "key mismatch"
	}
	sum := sha256.Sum256(env.Payload)
	if hex.EncodeToString(sum[:]) != env.SHA256 {
		return nil, "payload checksum mismatch"
	}
	return env.Payload, ""
}

// Put stores payload under key: the envelope is written to a temp file and
// renamed into place, so readers (and crashes) never observe a partial
// entry. Exceeding the size budget evicts least-recently-accessed entries.
func (s *Store) Put(key string, payload []byte) error {
	if s == nil {
		return nil
	}
	sum := sha256.Sum256(payload)
	data, err := json.Marshal(envelope{
		Schema:          Schema,
		Key:             key,
		SHA256:          hex.EncodeToString(sum[:]),
		CreatedUnixNano: time.Now().UnixNano(),
		Payload:         payload,
	})
	if err != nil {
		return fmt.Errorf("store: encoding %s: %w", key, err)
	}
	h := hashOf(key)
	tmp, err := os.CreateTemp(filepath.Join(s.dir, tmpDir), h+".*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: writing %s: %w", key, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: syncing %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: closing %s: %w", key, err)
	}
	dst := s.objectPath(h)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: publishing %s: %w", key, err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.entries[h]; ok {
		s.bytes -= old.size
	}
	s.entries[h] = &entry{size: int64(len(data)), atime: time.Now()}
	s.bytes += int64(len(data))
	s.puts++
	s.evictLocked()
	return nil
}

// evictLocked removes least-recently-accessed entries until the store fits
// its budget. The entry just written always has the newest access time, so
// it survives unless it is the only one.
func (s *Store) evictLocked() {
	if s.maxBytes <= 0 {
		return
	}
	for s.bytes > s.maxBytes && len(s.entries) > 1 {
		var oldestHash string
		var oldest *entry
		for h, e := range s.entries {
			if oldest == nil || e.atime.Before(oldest.atime) {
				oldestHash, oldest = h, e
			}
		}
		_ = os.Remove(s.objectPath(oldestHash))
		s.dropLocked(oldestHash, oldest)
		s.evictions++
	}
}

// dropLocked removes an entry from the index, adjusting size accounting.
func (s *Store) dropLocked(h string, ent *entry) {
	delete(s.entries, h)
	s.bytes -= ent.size
}

// quarantineLocked moves a failed-validation object into the quarantine
// directory (timestamped, so repeated corruption of the same key keeps
// every specimen) and forgets it.
func (s *Store) quarantineLocked(h string, ent *entry, reason string) {
	dst := filepath.Join(s.dir, quarantineDir,
		fmt.Sprintf("%s.%d.json", h, time.Now().UnixNano()))
	if err := os.Rename(s.objectPath(h), dst); err != nil {
		// Renaming failed (e.g. the file vanished); removing the index entry
		// still converts the corruption into a recompute.
		_ = os.Remove(s.objectPath(h))
	} else {
		// A sidecar note records why the entry was pulled.
		_ = os.WriteFile(dst+".reason", []byte(reason+"\n"), 0o644)
	}
	s.dropLocked(h, ent)
	s.quarantined++
}

// Quarantine moves the entry stored under key aside as if it had failed
// validation. Callers use it when the envelope was intact but the payload
// failed a higher-level decode (schema drift between releases).
func (s *Store) Quarantine(key, reason string) {
	if s == nil {
		return
	}
	h := hashOf(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if ent, ok := s.entries[h]; ok {
		s.quarantineLocked(h, ent, reason)
	}
}

// Len returns the number of stored entries.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Stats snapshots the store counters (zero for a nil store).
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits:        s.hits,
		Misses:      s.misses,
		Puts:        s.puts,
		Evictions:   s.evictions,
		Quarantined: s.quarantined,
		Entries:     len(s.entries),
		Bytes:       s.bytes,
		MaxBytes:    s.maxBytes,
	}
}
