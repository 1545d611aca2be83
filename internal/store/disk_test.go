package store

import (
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"mimdloop/internal/pipeline"
)

// corruptRecord overwrites key's record file behind the store's back.
func corruptRecord(t *testing.T, dir, key string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, fileName(key)), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// quarantined lists the quarantine directory.
func quarantined(t *testing.T, dir string) []os.DirEntry {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, quarantineDir))
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

// replaceDuringRead makes the next read-and-decode of a record Put a
// good plan under key before the reader re-takes the lock.
func replaceDuringRead(d *DiskStore, key string, p *pipeline.Plan) {
	var once sync.Once
	d.afterRead = func(string) { once.Do(func() { d.Put(key, p) }) }
}

// TestDiskStoreGetKeepsReplacedRecord: a Get that decodes a corrupt
// record while a concurrent Put replaces it must not quarantine the
// replacement — it only judged the entry it read.
func TestDiskStoreGetKeepsReplacedRecord(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(DiskConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	key, plan := buildPlan(t, 20)
	d.Put(key, plan)
	corruptRecord(t, dir, key)
	replaceDuringRead(d, key, plan)

	if _, ok := d.Get(key); ok {
		t.Fatal("corrupt record served")
	}
	d.afterRead = nil
	if _, ok := d.Get(key); !ok {
		t.Fatal("good record replaced during a corrupt read was dropped")
	}
	if q := quarantined(t, dir); len(q) != 0 {
		t.Fatalf("quarantined %d records, want 0", len(q))
	}
	if s := d.Stats(); s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestDiskStorePlansKeepsReplacedRecord is the same race on the listing
// path: Plans decodes outside the lock, so a record a concurrent Put
// replaced after the snapshot must survive.
func TestDiskStorePlansKeepsReplacedRecord(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(DiskConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	key, plan := buildPlan(t, 20)
	d.Put(key, plan)
	corruptRecord(t, dir, key)
	replaceDuringRead(d, key, plan)

	if infos := d.Plans(); len(infos) != 0 {
		t.Fatalf("listing of a corrupt record = %+v", infos)
	}
	d.afterRead = nil
	if _, ok := d.Get(key); !ok {
		t.Fatal("good record replaced during a corrupt listing was quarantined")
	}
	if q := quarantined(t, dir); len(q) != 0 {
		t.Fatalf("quarantined %d records, want 0", len(q))
	}
	// Without a concurrent replacement the corrupt record still goes.
	corruptRecord(t, dir, key)
	if infos := d.Plans(); len(infos) != 0 || d.Len() != 0 || len(quarantined(t, dir)) != 1 {
		t.Fatalf("corrupt record not quarantined: %d listed, %d indexed", len(infos), d.Len())
	}
}

// TestDiskStoreConcurrentOps runs Get, Put, Delete and GC from several
// goroutines over overlapping keys (run under -race in CI). The counters
// must account for every Get, the index must match the files on disk,
// and a Get reading a corrupt file while a good Put lands must never
// quarantine the good record.
func TestDiskStoreConcurrentOps(t *testing.T) {
	dir := t.TempDir()
	const nkeys = 6
	keys := make([]string, nkeys)
	plans := make([]*pipeline.Plan, nkeys)
	for i := range keys {
		keys[i], plans[i] = buildPlan(t, 10+i)
	}
	rec, err := pipeline.EncodePlan(plans[0])
	if err != nil {
		t.Fatal(err)
	}
	// A budget of about four records makes GC evict under load.
	d, err := Open(DiskConfig{Dir: dir, MaxBytes: int64(4 * len(rec))})
	if err != nil {
		t.Fatal(err)
	}

	var gets atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for op := 0; op < 200; op++ {
				i := rng.Intn(nkeys)
				switch r := rng.Intn(10); {
				case r < 5:
					gets.Add(1)
					if p, ok := d.Get(keys[i]); ok && p.Iterations != plans[i].Iterations {
						t.Errorf("Get(%d) served a plan for %d iterations", i, p.Iterations)
					}
				case r < 8:
					d.Put(keys[i], plans[i])
				case r < 9:
					d.Delete(keys[i])
				default:
					d.GC()
				}
			}
		}(int64(w))
	}
	wg.Wait()

	s := d.Stats()
	if got := int64(s.Hits + s.Misses); got != gets.Load() {
		t.Fatalf("hits+misses = %d, want %d Gets", got, gets.Load())
	}
	var onDisk int64
	for _, key := range keys {
		if info, err := os.Stat(filepath.Join(dir, fileName(key))); err == nil {
			onDisk += info.Size()
		}
	}
	if onDisk != d.Bytes() || d.Bytes() > int64(4*len(rec)) {
		t.Fatalf("index holds %d bytes, disk %d, budget %d", d.Bytes(), onDisk, 4*len(rec))
	}
	if q := quarantined(t, dir); len(q) != 0 {
		t.Fatalf("good records quarantined: %d", len(q))
	}

	// Corrupt-read vs good-Put races: after the Put returns, the key must
	// still be served whatever the racing Gets decided.
	for round := 0; round < 20; round++ {
		key, plan := keys[round%nkeys], plans[round%nkeys]
		d.Put(key, plan)
		corruptRecord(t, dir, key)
		var race sync.WaitGroup
		for g := 0; g < 3; g++ {
			race.Add(1)
			go func() {
				defer race.Done()
				d.Get(key)
			}()
		}
		d.Put(key, plan)
		race.Wait()
		if _, ok := d.Get(key); !ok {
			t.Fatalf("round %d: good record lost to a racing corrupt read", round)
		}
	}
}
