// Package store provides durable and tiered implementations of the
// pipeline's PlanStore interface: DiskStore persists plans as
// content-addressed JSON records under a directory, and TieredStore
// composes a fast upper tier (typically a pipeline.MemStore) with a
// durable lower tier so plans survive process restarts — scheduling
// (and AutoTune grid sweeps) run once, and every later process serves
// the same plans from disk instead of rescheduling.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"mimdloop/internal/pipeline"
)

// Filesystem layout: one file per plan, named by the SHA-256 of the full
// plan key (fingerprint + options + iterations) so arbitrary key bytes
// never reach the filesystem, with the record's own key field closing the
// loop on collisions. Writes land in a temp file first and are renamed
// into place, so a reader (or a crash) never observes a half-written
// record. Records that fail to decode are moved aside into quarantineDir
// rather than deleted — they are evidence, not garbage.
const (
	planExt       = ".plan.json"
	tmpPrefix     = ".tmp-"
	quarantineDir = "quarantine"
)

// DiskConfig configures a DiskStore.
type DiskConfig struct {
	// Dir is the store directory, created if missing.
	Dir string
	// MaxBytes bounds the total size of retained plan records; exceeding
	// it garbage-collects least-recently-used records after each Put.
	// <= 0 means 1 GiB. Quarantined records do not count.
	MaxBytes int64
}

// DiskStore is a durable PlanStore: content-addressed plan records on a
// local filesystem. It is safe for concurrent use by one process. Its
// one mutex guards only the in-memory index and counters: file reads,
// record decodes, writes and fsyncs run outside it. The disk tier sees
// every memory miss, including each never-seen key, so a lock held
// across multi-megabyte I/O would make plain index misses wait behind
// other requests' record reads and fsyncs.
type DiskStore struct {
	dir      string
	maxBytes int64

	mu    sync.Mutex
	index map[string]*diskEntry // file base name -> entry
	bytes int64
	// counters are guarded by mu too: one lock keeps the index and its
	// aggregates trivially consistent.
	hits, misses, puts, evictions, errors uint64

	// afterRead, when a test sets it, runs in Get and Plans between the
	// unlocked read-and-decode of a record and re-taking mu to act on
	// the result: the window in which a concurrent Put can replace the
	// record.
	afterRead func(name string)
}

// diskEntry is the in-memory index record for one plan file.
type diskEntry struct {
	size int64
	// used orders GC: refreshed on every Get and Put. Initialized from
	// the file's mtime when the index is rebuilt at Open, so recency
	// survives restarts approximately.
	used time.Time
}

// Open returns a DiskStore over cfg.Dir, creating the directory if
// needed and indexing any plan records already present — that index scan
// is what makes a restarted process see its predecessor's plans.
func Open(cfg DiskConfig) (*DiskStore, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 1 << 30
	}
	if err := os.MkdirAll(filepath.Join(cfg.Dir, quarantineDir), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	d := &DiskStore{
		dir:      cfg.Dir,
		maxBytes: cfg.MaxBytes,
		index:    make(map[string]*diskEntry),
	}
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, planExt) {
			// Stray temp files from a crashed writer are dead weight.
			if strings.HasPrefix(name, tmpPrefix) {
				_ = os.Remove(filepath.Join(cfg.Dir, name))
			}
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		d.index[name] = &diskEntry{size: info.Size(), used: info.ModTime()}
		d.bytes += info.Size()
	}
	return d, nil
}

// fileName derives the content address of a plan key.
func fileName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:]) + planExt
}

// Get reads and decodes the plan stored under key. A record that fails
// to decode — torn write survived by a crash, format drift, manual
// corruption — is quarantined and reported as a miss, so one bad file
// can never take the store down or poison a key forever.
//
// Only the index lookup and the bookkeeping after the read hold d.mu;
// the file read and the decode run unlocked, so a multi-megabyte record
// never stalls concurrent misses behind it. A failed read or decode
// drops or quarantines the entry only if the index still holds the
// entry that was read: a concurrent Put may have replaced a bad record
// with a good one in the meantime.
func (d *DiskStore) Get(key string) (*pipeline.Plan, bool) {
	name := fileName(key)
	d.mu.Lock()
	e, ok := d.index[name]
	if !ok {
		d.misses++
		d.mu.Unlock()
		return nil, false
	}
	d.mu.Unlock()

	data, readErr := os.ReadFile(filepath.Join(d.dir, name))
	var plan *pipeline.Plan
	corrupt := false
	if readErr == nil {
		gotKey, p, err := pipeline.DecodePlan(data)
		plan, corrupt = p, err != nil || gotKey != key
	}
	if d.afterRead != nil {
		d.afterRead(name)
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	if readErr != nil || corrupt {
		d.misses++
		switch {
		case d.index[name] != e:
			// Replaced, deleted or collected while we read: the entry we
			// judged is gone, so there is nothing to drop.
		case readErr != nil:
			// The index is stale (file removed behind our back): drop it.
			delete(d.index, name)
			d.bytes -= e.size
			d.errors++
		default:
			d.quarantineLocked(name, e)
		}
		return nil, false
	}
	e.used = time.Now()
	d.hits++
	return plan, true
}

// OpenRecord opens the raw encoded record stored under key, returning
// the file and its indexed size. This is the zero-copy read side of the
// record-streaming path: the server hands the file straight to the
// socket (io.Copy over an *os.File can use sendfile) instead of
// decoding and re-encoding the plan through a record-sized buffer. The
// caller owns the returned reader; the open file stays valid even if
// the record is GC'd or replaced mid-stream (the rename/remove unlinks
// the name, not the open handle).
func (d *DiskStore) OpenRecord(key string) (io.ReadCloser, int64, error) {
	name := fileName(key)
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.index[name]
	if !ok {
		d.misses++
		return nil, 0, fmt.Errorf("store: no record for key %q", key)
	}
	f, err := os.Open(filepath.Join(d.dir, name))
	if err != nil {
		// The index is stale (file removed behind our back): drop it.
		delete(d.index, name)
		d.bytes -= e.size
		d.misses++
		d.errors++
		return nil, 0, fmt.Errorf("store: %w", err)
	}
	e.used = time.Now()
	d.hits++
	return f, e.size, nil
}

// PutRecord streams an encoded plan record from r into the store under
// key. The bytes flow through a bounded copy window into a temp file —
// never into one record-sized heap buffer — then the temp file is read
// back, decode-validated exactly like Get would (key match included),
// and renamed into place. This is the write side of the streaming
// peer-fill path: a peer's record lands on disk through validation
// without being slurped whole off the wire, and the decoded plan comes
// back for the caller to serve. An invalid or mismatched record never
// enters the store.
func (d *DiskStore) PutRecord(key string, r io.Reader) (*pipeline.Plan, error) {
	tmp, err := os.CreateTemp(d.dir, tmpPrefix+"*")
	if err != nil {
		d.countError()
		return nil, fmt.Errorf("store: %w", err)
	}
	size, werr := io.Copy(tmp, r)
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	var data []byte
	if werr == nil {
		// Validation needs the whole record once (decode is not
		// streamable); os.ReadFile sizes its buffer from the file, so
		// this is one exact-size allocation that dies with this call —
		// unlike the pre-streaming path, which grew a wire buffer, kept
		// the decode copy, and re-encoded a third for disk.
		data, werr = os.ReadFile(tmp.Name())
	}
	if werr != nil {
		_ = os.Remove(tmp.Name())
		d.countError()
		return nil, fmt.Errorf("store: %w", werr)
	}
	gotKey, plan, err := pipeline.DecodePlan(data)
	if err == nil && gotKey != key {
		err = fmt.Errorf("record key %q does not match requested key %q", gotKey, key)
	}
	if err != nil {
		_ = os.Remove(tmp.Name())
		d.countError()
		return nil, fmt.Errorf("store: %w", err)
	}
	name := fileName(key)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.puts++
	if err := os.Rename(tmp.Name(), filepath.Join(d.dir, name)); err != nil {
		_ = os.Remove(tmp.Name())
		d.errors++
		return nil, fmt.Errorf("store: %w", err)
	}
	d.installLocked(name, size)
	return plan, nil
}

// quarantineLocked moves a corrupt record aside and drops it from the
// index. Caller holds d.mu.
func (d *DiskStore) quarantineLocked(name string, e *diskEntry) {
	d.errors++
	dst := filepath.Join(d.dir, quarantineDir, name)
	if err := os.Rename(filepath.Join(d.dir, name), dst); err != nil {
		// Rename failed (e.g. the quarantine dir was removed): delete
		// rather than serve corruption forever.
		_ = os.Remove(filepath.Join(d.dir, name))
	}
	delete(d.index, name)
	d.bytes -= e.size
}

// Put encodes and durably stores p under key: the record is written to a
// temp file in the store directory, synced, and renamed into place, so
// concurrent readers and crash-interrupted writes observe either the old
// record or the new one — never a prefix. Encoding, the write and the
// fsync run without d.mu; only the rename and the index update hold it,
// so the index always describes the file the last rename installed.
func (d *DiskStore) Put(key string, p *pipeline.Plan) {
	if pipeline.PlanKey(p.GraphHash, p.Opts, p.Iterations) != key {
		// An aliased key could never be answered consistently after a
		// restart (records are verified against their ingredients), so
		// decline it rather than persist a lie.
		d.countError()
		return
	}
	data, err := pipeline.EncodePlan(p)
	if err != nil {
		d.countError()
		return
	}
	tmp, err := os.CreateTemp(d.dir, tmpPrefix+"*")
	if err != nil {
		d.mu.Lock()
		d.puts++
		d.errors++
		d.mu.Unlock()
		return
	}
	_, werr := tmp.Write(data)
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	name := fileName(key)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.puts++
	if werr == nil {
		werr = os.Rename(tmp.Name(), filepath.Join(d.dir, name))
	}
	if werr != nil {
		_ = os.Remove(tmp.Name())
		d.errors++
		return
	}
	d.installLocked(name, int64(len(data)))
}

// countError records a failure that touched no index state.
func (d *DiskStore) countError() {
	d.mu.Lock()
	d.errors++
	d.mu.Unlock()
}

// installLocked records a freshly renamed record file in the index and
// trims the store to its budget. Caller holds d.mu.
func (d *DiskStore) installLocked(name string, size int64) {
	if d.index == nil {
		return // closed: the record is on disk for the next Open
	}
	if old, ok := d.index[name]; ok {
		d.bytes -= old.size
	}
	d.index[name] = &diskEntry{size: size, used: time.Now()}
	d.bytes += size
	d.gcLocked()
}

// Delete removes the record stored under key, if any.
func (d *DiskStore) Delete(key string) {
	name := fileName(key)
	d.mu.Lock()
	defer d.mu.Unlock()
	if e, ok := d.index[name]; ok {
		_ = os.Remove(filepath.Join(d.dir, name))
		delete(d.index, name)
		d.bytes -= e.size
	}
}

// gcLocked trims the store to its byte budget, least-recently-used
// records first, always keeping the most recent record. Caller holds
// d.mu. Returns how many records were removed and their total size.
func (d *DiskStore) gcLocked() (removed int, reclaimed int64) {
	if d.bytes <= d.maxBytes || len(d.index) <= 1 {
		return 0, 0
	}
	type cand struct {
		name string
		e    *diskEntry
	}
	cands := make([]cand, 0, len(d.index))
	for name, e := range d.index {
		cands = append(cands, cand{name, e})
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].e.used.Before(cands[b].e.used) })
	for _, c := range cands {
		if d.bytes <= d.maxBytes || len(d.index) <= 1 {
			break
		}
		_ = os.Remove(filepath.Join(d.dir, c.name))
		delete(d.index, c.name)
		d.bytes -= c.e.size
		d.evictions++
		removed++
		reclaimed += c.e.size
	}
	return removed, reclaimed
}

// GC trims the store to its byte budget immediately (Put already does
// this incrementally; GC exists for `loopsched store gc`, which opens a
// store over an existing directory purely to shrink it). It reports how
// many records were removed and how many bytes were reclaimed.
func (d *DiskStore) GC() (removed int, reclaimed int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.gcLocked()
}

// Len reports the number of stored plan records.
func (d *DiskStore) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.index)
}

// Bytes reports the total size of the stored plan records.
func (d *DiskStore) Bytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.bytes
}

// Flush removes every stored plan record (quarantined records are kept:
// they document corruption until an operator inspects them).
func (d *DiskStore) Flush() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var firstErr error
	for name, e := range d.index {
		if err := os.Remove(filepath.Join(d.dir, name)); err != nil && firstErr == nil {
			firstErr = err
		}
		delete(d.index, name)
		d.bytes -= e.size
	}
	return firstErr
}

// Close releases the store. Records are already durable, so this only
// bars further use of the in-memory index.
func (d *DiskStore) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.index = nil
	return nil
}

// Stats snapshots the store's counters.
func (d *DiskStore) Stats() pipeline.StoreStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return pipeline.StoreStats{
		Kind:      "disk",
		Hits:      d.hits,
		Misses:    d.misses,
		Puts:      d.puts,
		Evictions: d.evictions,
		Errors:    d.errors,
		Entries:   len(d.index),
		Bytes:     d.bytes,
	}
}

// Plans enumerates the stored records by reading and decoding each file;
// corrupt records are quarantined along the way. This is the slow,
// operator-facing path behind GET /v1/plans and `loopsched store ls` —
// so the index is snapshotted first and all file IO runs outside the
// lock, keeping concurrent Gets and Puts from stalling behind a full
// store scan.
func (d *DiskStore) Plans() []pipeline.PlanInfo {
	type snap struct {
		name string
		e    *diskEntry
	}
	d.mu.Lock()
	snaps := make([]snap, 0, len(d.index))
	for name, e := range d.index {
		snaps = append(snaps, snap{name, e})
	}
	d.mu.Unlock()
	sort.Slice(snaps, func(a, b int) bool { return snaps[a].name < snaps[b].name })

	var out []pipeline.PlanInfo
	for _, s := range snaps {
		data, err := os.ReadFile(filepath.Join(d.dir, s.name))
		if err != nil {
			// Deleted or GC'd between snapshot and read: not an error,
			// just no longer part of the listing.
			continue
		}
		key, plan, err := pipeline.DecodePlan(data)
		if d.afterRead != nil {
			d.afterRead(s.name)
		}
		if err != nil {
			// Quarantine only the entry that was read: a concurrent Put
			// may have replaced it with a good record since the snapshot.
			d.mu.Lock()
			if d.index[s.name] == s.e {
				d.quarantineLocked(s.name, s.e)
			}
			d.mu.Unlock()
			continue
		}
		out = append(out, pipeline.PlanInfo{
			Key:        key,
			GraphHash:  plan.GraphHash,
			Options:    plan.Opts,
			Iterations: plan.Iterations,
			Rate:       plan.Rate(),
			Procs:      plan.Procs(),
			Makespan:   plan.Makespan(),
			Bytes:      s.e.size,
		})
	}
	return out
}
