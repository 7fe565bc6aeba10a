package simstore

import (
	"bytes"
	"container/list"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/gpu"
	"repro/internal/jsonplan"
	"repro/internal/sweep"
)

// RecordVersion versions the on-disk record layout. Records with a different
// version are treated as misses (and removed), never misread.
const RecordVersion = 2

// File extensions for the two kinds of content the store holds: JSON result
// records and opaque checkpoint blobs (see internal/checkpoint for the blob
// format). Both live in the same shard directories and share one LRU.
const (
	recordExt = ".json"
	blobExt   = ".ckpt"
)

// Record is the unit the store persists, one compact JSON object a file:
// one run's statistics, addressed by the fingerprint of its spec. Stats are
// the exact bytes json.Marshal produced for the run's gpu.RunStats and
// StatsCRC is their CRC-32C, so a read checks and serves them without
// decoding them, and every changed byte among them is caught. Spec and Key
// are informational — they let a human (or the simd API) see what a record
// is without reverse-engineering the hash — and are neither trusted for
// lookups nor verified by reads.
type Record struct {
	Version     int             `json:"version"`
	Fingerprint string          `json:"fingerprint"`
	Key         string          `json:"key,omitempty"`
	Spec        sweep.RunSpec   `json:"spec"`
	SavedAtUnix int64           `json:"saved_at_unix"`
	StatsCRC    uint32          `json:"stats_crc32c"`
	Stats       json.RawMessage `json:"stats"`
}

// recordHead is what a read decodes of a record file: the spec and the save
// time are skipped (validated, never built) and the stats kept as bytes.
type recordHead struct {
	Version     int             `json:"version"`
	Fingerprint string          `json:"fingerprint"`
	Key         string          `json:"key"`
	StatsCRC    uint32          `json:"stats_crc32c"`
	Stats       json.RawMessage `json:"stats"`
}

// EncodedStats is a run's statistics as the store keeps and the simd
// service moves them: the compact JSON json.Marshal produces for a
// gpu.RunStats, and its CRC-32C.
type EncodedStats struct {
	JSON []byte
	CRC  uint32
}

// EncodeStats encodes stats once, for every store, body and replica that
// will carry them.
func EncodeStats(stats gpu.RunStats) (EncodedStats, error) {
	b, err := json.Marshal(stats)
	return EncodedStats{JSON: b, CRC: Checksum(b)}, err
}

// Intact reports whether e holds a JSON object that still matches its
// checksum.
func (e EncodedStats) Intact() bool {
	return len(e.JSON) > 0 && e.JSON[0] == '{' && Checksum(e.JSON) == e.CRC
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC-32C of b: the checksum a record keeps beside its
// statistics and the simd service sends with them.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// Hit is a record as a read returns it: its key and its statistics, checked
// against their checksum.
type Hit struct {
	Key   string
	Stats EncodedStats
}

// Options configures a Store.
type Options struct {
	// MaxEntries bounds the number of entries (records and blobs together)
	// kept on disk; once full, the least-recently-used entry is evicted on
	// insert. 0 means unbounded.
	MaxEntries int
	// MaxBytes bounds the total on-disk size of all entries; the LRU evicts
	// until under the bound. Checkpoint blobs dominate this budget (a record
	// is a few KiB, a blob can be megabytes). 0 means unbounded.
	MaxBytes int64
}

// Stats are the store's observability counters (served by simd's /metrics).
type Stats struct {
	Entries    int
	Blobs      int
	TotalBytes int64
	Hits       uint64
	Misses     uint64
	Puts       uint64
	BlobHits   uint64
	BlobMisses uint64
	BlobPuts   uint64
	Evictions  uint64
	Corrupt    uint64
}

// fileKey identifies one stored file: its fingerprint hex plus which of the
// two namespaces (record or blob) it lives in. Records and blobs use
// different fingerprint salts, but the extension split makes the namespaces
// collision-proof by construction.
type fileKey struct {
	hex  string
	blob bool
}

func (k fileKey) ext() string {
	if k.blob {
		return blobExt
	}
	return recordExt
}

// Store is a content-addressed, on-disk map from fingerprint to content:
// result records (<fingerprint>.json) and checkpoint blobs (<fingerprint>.ckpt),
// both inside a two-hex-character shard directory (aa/aabb...), written
// atomically (temp file + rename) so a crash never leaves a half-written
// entry behind. Reads tolerate corruption: an unparseable, version-skewed or
// mislabeled record, and one whose statistics fail their checksum, counts as
// a miss and the offending file is removed (checkpoint blobs are opaque here;
// their consumer reports corruption via DropBlob). Recency is an in-memory
// LRU list seeded from file modification times at Open and persisted back
// via mtime bumps on hits, so LRU eviction keeps working across daemon
// restarts. Records and blobs share the LRU and both count against
// MaxEntries and MaxBytes.
//
// A Store is safe for concurrent use.
type Store struct {
	dir      string
	max      int
	maxBytes int64

	mu    sync.Mutex
	index map[fileKey]*list.Element // -> lru element
	lru   *list.List                // front = most recently used; values are fileKeys
	sizes map[fileKey]int64
	bytes int64
	blobs int // indexed blob entries
	stats Stats
	// read is the buffer Get reads record files into, reused under mu: a
	// hit's key and statistics are decoded out of it as copies.
	read []byte
}

// maxKeptRead is the largest record read buffer a Store keeps between
// reads; a longer record (none is near it) is read into a buffer of its own.
const maxKeptRead = 1 << 20

// Open creates (if needed) and loads the store rooted at dir.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("simstore: open: %w", err)
	}
	s := &Store{
		dir:      dir,
		max:      opts.MaxEntries,
		maxBytes: opts.MaxBytes,
		index:    make(map[fileKey]*list.Element),
		lru:      list.New(),
		sizes:    make(map[fileKey]int64),
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	return s, nil
}

// load seeds the LRU index from the entries already on disk, oldest first.
func (s *Store) load() error {
	type onDisk struct {
		key   fileKey
		size  int64
		mtime time.Time
	}
	var found []onDisk
	shards, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("simstore: scan: %w", err)
	}
	for _, shard := range shards {
		if !shard.IsDir() || len(shard.Name()) != 2 {
			continue
		}
		entries, err := os.ReadDir(filepath.Join(s.dir, shard.Name()))
		if err != nil {
			continue
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() {
				continue
			}
			// A crash between CreateTemp and the rename in put leaves a
			// .tmp-* file behind; reclaim it (nothing references temp names).
			if strings.HasPrefix(name, ".tmp-") {
				os.Remove(filepath.Join(s.dir, shard.Name(), name))
				continue
			}
			var key fileKey
			switch {
			case strings.HasSuffix(name, recordExt):
				key = fileKey{hex: strings.TrimSuffix(name, recordExt)}
			case strings.HasSuffix(name, blobExt):
				key = fileKey{hex: strings.TrimSuffix(name, blobExt), blob: true}
			default:
				continue
			}
			if len(key.hex) != 64 || !strings.HasPrefix(key.hex, shard.Name()) {
				continue
			}
			info, err := e.Info()
			if err != nil {
				continue
			}
			found = append(found, onDisk{key: key, size: info.Size(), mtime: info.ModTime()})
		}
	}
	// Oldest first, so pushing each to the LRU front leaves the most recent
	// entry at the front. Ties break on the fingerprint for determinism.
	sort.Slice(found, func(i, j int) bool {
		a, b := found[i], found[j]
		if !a.mtime.Equal(b.mtime) {
			return a.mtime.Before(b.mtime)
		}
		if a.key.hex != b.key.hex {
			return a.key.hex < b.key.hex
		}
		return !a.key.blob && b.key.blob
	})
	for _, f := range found {
		s.index[f.key] = s.lru.PushFront(f.key)
		s.sizes[f.key] = f.size
		s.bytes += f.size
		if f.key.blob {
			s.blobs++
		}
	}
	return nil
}

func (s *Store) path(k fileKey) string {
	return filepath.Join(s.dir, k.hex[:2], k.hex+k.ext())
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Len returns the number of indexed entries (records and blobs).
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// StoreStats returns a snapshot of the observability counters.
func (s *Store) StoreStats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = s.lru.Len()
	st.Blobs = s.blobs
	st.TotalBytes = s.bytes
	return st
}

// Get looks up the record for fp. ok=false means a (counted) miss; a
// corrupt or version-skewed record on disk — any changed byte of its
// statistics included — is removed and reported as a miss, never as an
// error. The statistics are checked against their checksum, not decoded. A
// hit refreshes the record's LRU position and mtime.
func (s *Store) Get(fp [32]byte) (Hit, bool) {
	key := fileKey{hex: Hex(fp)}
	s.mu.Lock()
	defer s.mu.Unlock()

	elem, ok := s.index[key]
	if !ok {
		s.stats.Misses++
		return Hit{}, false
	}
	data, err := s.readLocked(key)
	if err != nil {
		// Index said yes but the file is gone (pruned externally): self-heal.
		s.dropLocked(key, elem, false)
		s.stats.Misses++
		return Hit{}, false
	}
	var rec recordHead
	err = jsonplan.Unmarshal(data, &rec)
	stats := EncodedStats{JSON: rec.Stats, CRC: rec.StatsCRC}
	if err != nil || rec.Version != RecordVersion || rec.Fingerprint != key.hex || !stats.Intact() {
		s.dropLocked(key, elem, true)
		s.stats.Corrupt++
		s.stats.Misses++
		return Hit{}, false
	}
	s.touchLocked(key, elem)
	s.stats.Hits++
	return Hit{Key: rec.Key, Stats: stats}, true
}

// readLocked reads the file of key into s.read, sized from the index's
// recorded size so that neither a Stat nor a new buffer is needed. A file
// that has grown since it was indexed is still read whole. The bytes are
// valid until the next read. Callers hold s.mu.
func (s *Store) readLocked(key fileKey) ([]byte, error) {
	f, err := os.Open(s.path(key))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// ReadFrom grows a buffer with less than MinRead bytes free, so that
	// much spare room lets the read that meets EOF land without a regrow.
	buf := s.read
	if need := s.sizes[key] + bytes.MinRead; int64(cap(buf)) < need {
		buf = make([]byte, 0, need)
	}
	b := bytes.NewBuffer(buf[:0])
	_, err = b.ReadFrom(f)
	data := b.Bytes()
	if cap(data) <= maxKeptRead {
		s.read = data[:0]
	}
	return data, err
}

// touchLocked refreshes an entry's LRU position and persists the recency as
// an mtime bump (best-effort). Callers hold s.mu.
func (s *Store) touchLocked(key fileKey, elem *list.Element) {
	s.lru.MoveToFront(elem)
	now := time.Now()
	os.Chtimes(s.path(key), now, now)
}

// Put stores stats under fp, evicting least-recently-used entries if the
// store is over its bounds. Putting an already-present fingerprint refreshes
// the record in place.
func (s *Store) Put(fp [32]byte, key string, spec sweep.RunSpec, stats gpu.RunStats) error {
	enc, err := EncodeStats(stats)
	if err != nil {
		return fmt.Errorf("simstore: put: %w", err)
	}
	return s.PutEncoded(fp, key, spec, enc)
}

// PutEncoded is Put for statistics already encoded: the record holds
// stats.JSON byte for byte, which must be a compact JSON object matching
// stats.CRC.
func (s *Store) PutEncoded(fp [32]byte, key string, spec sweep.RunSpec, stats EncodedStats) error {
	if !stats.Intact() {
		return fmt.Errorf("simstore: put: statistics are not a JSON object matching their checksum")
	}
	rec := Record{
		Version:     RecordVersion,
		Fingerprint: Hex(fp),
		Key:         key,
		Spec:        spec.Canonical(),
		SavedAtUnix: time.Now().Unix(),
		StatsCRC:    stats.CRC,
		Stats:       stats.JSON,
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("simstore: put: %w", err)
	}
	// json.Marshal compacts a raw message; the checksum covers the bytes as
	// given, so they must come through unchanged.
	if !bytes.HasSuffix(data[:len(data)-1], stats.JSON) {
		return fmt.Errorf("simstore: put: statistics are not compact JSON")
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.putLocked(fileKey{hex: rec.Fingerprint}, data); err != nil {
		return err
	}
	s.stats.Puts++
	return nil
}

// PutBlob stores an opaque checkpoint blob under fp. The store never
// interprets blob contents; internal/checkpoint owns the format.
func (s *Store) PutBlob(fp [32]byte, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.putLocked(fileKey{hex: Hex(fp), blob: true}, data); err != nil {
		return err
	}
	s.stats.BlobPuts++
	return nil
}

// GetBlob looks up the checkpoint blob for fp; ok=false is a counted miss.
// A hit refreshes the blob's LRU position and mtime. Callers that find the
// returned bytes undecodable must report it via DropBlob so the store can
// self-heal.
func (s *Store) GetBlob(fp [32]byte) ([]byte, bool) {
	key := fileKey{hex: Hex(fp), blob: true}
	s.mu.Lock()
	defer s.mu.Unlock()

	elem, ok := s.index[key]
	if !ok {
		s.stats.BlobMisses++
		return nil, false
	}
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		s.dropLocked(key, elem, false)
		s.stats.BlobMisses++
		return nil, false
	}
	s.touchLocked(key, elem)
	s.stats.BlobHits++
	return data, true
}

// Has reports whether a record is stored under fp: an index check that
// reads no file and touches neither LRU recency nor the hit/miss counters.
func (s *Store) Has(fp [32]byte) bool { return s.has(fileKey{hex: Hex(fp)}) }

// HasBlob is Has for checkpoint blobs.
func (s *Store) HasBlob(fp [32]byte) bool { return s.has(fileKey{hex: Hex(fp), blob: true}) }

func (s *Store) has(key fileKey) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[key]
	return ok
}

// DropBlob removes the blob stored under fp, counting it as corrupt. It is
// the self-heal path for blobs whose content fails to decode downstream —
// the corrupt file is deleted so the next run falls back to cold execution
// and rewrites it.
func (s *Store) DropBlob(fp [32]byte) {
	key := fileKey{hex: Hex(fp), blob: true}
	s.mu.Lock()
	defer s.mu.Unlock()
	if elem, ok := s.index[key]; ok {
		s.dropLocked(key, elem, true)
		s.stats.Corrupt++
	}
}

// putLocked atomically writes one file and indexes it. Callers hold s.mu.
func (s *Store) putLocked(key fileKey, data []byte) error {
	path := s.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("simstore: put: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("simstore: put: %w", err)
	}
	if _, err := tmp.Write(data); err == nil {
		err = tmp.Close()
	} else {
		tmp.Close()
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("simstore: put: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("simstore: put: %w", err)
	}

	if elem, ok := s.index[key]; ok {
		s.lru.MoveToFront(elem)
		s.bytes += int64(len(data)) - s.sizes[key]
	} else {
		s.index[key] = s.lru.PushFront(key)
		s.bytes += int64(len(data))
		if key.blob {
			s.blobs++
		}
	}
	s.sizes[key] = int64(len(data))
	s.evictLocked()
	return nil
}

// evictLocked drops least-recently-used entries until both bounds hold.
// Callers hold s.mu.
func (s *Store) evictLocked() {
	for (s.max > 0 && s.lru.Len() > s.max) || (s.maxBytes > 0 && s.bytes > s.maxBytes) {
		oldest := s.lru.Back()
		if oldest == nil {
			return
		}
		s.dropLocked(oldest.Value.(fileKey), oldest, true)
		s.stats.Evictions++
	}
}

// dropLocked removes an entry from the index and, if removeFile is set, from
// disk. Callers hold s.mu.
func (s *Store) dropLocked(key fileKey, elem *list.Element, removeFile bool) {
	s.lru.Remove(elem)
	delete(s.index, key)
	s.bytes -= s.sizes[key]
	delete(s.sizes, key)
	if key.blob {
		s.blobs--
	}
	if removeFile {
		os.Remove(s.path(key))
	}
}
