package store

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/crowder/crowder/internal/crowd"
)

// Options configures a FileLog.
type Options struct {
	// CompactBytes is the WAL size that triggers a compacting snapshot
	// after a durable write. Zero means the 1 MiB default; negative
	// disables compaction entirely.
	CompactBytes int64
}

const defaultCompactBytes = 1 << 20

// FileLog is the file-backed Store: an append-only WAL of session events
// plus periodic compacting snapshots. On disk a generation is the pair
// snapshot-<seq>.snap / wal-<seq>.log — the snapshot holds everything up
// to the moment of compaction, the WAL holds the tail. Recovery loads
// the highest complete snapshot and replays its WAL; a crash between the
// snapshot rename and the new WAL's creation leaves the previous
// generation's WAL fully contained in the new snapshot, so either
// generation recovers to the same state. The log holds only the open WAL
// and its counters, never the session state: compaction rebuilds that
// from disk through the loader recovery uses.
type FileLog struct {
	dir  string
	opts Options

	// mu serializes appends: the resolver's commit sites and the queue's
	// journal callbacks log from different goroutines. It is always the
	// innermost lock — callers may hold the resolver or queue lock.
	mu        sync.Mutex
	seq       int
	f         *os.File
	w         *bufio.Writer
	walBytes  int64
	snapBytes int64
	err       error // sticky: first write/sync failure poisons the log
}

// Open opens (or creates) the log in dir, replays whatever is on disk,
// and returns the log ready for appends plus the recovered state.
// A torn tail — an incomplete final record from a crash mid-write — is
// truncated silently; corruption anywhere earlier fails loudly with a
// *CorruptError.
func Open(dir string, opts Options) (*FileLog, *Recovered, error) {
	if opts.CompactBytes == 0 {
		opts.CompactBytes = defaultCompactBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	snaps, wals, tmps, err := scanDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, t := range tmps {
		os.Remove(filepath.Join(dir, t))
	}

	seq := 0
	if len(snaps) > 0 {
		seq = snaps[len(snaps)-1]
	}
	st, snapBytes, walValid, err := loadGeneration(dir, seq)
	if err != nil {
		return nil, nil, err
	}

	// Older generations are fully contained in the loaded snapshot.
	for _, s := range snaps {
		if s < seq {
			os.Remove(filepath.Join(dir, snapName(s)))
		}
	}
	for _, w := range wals {
		if w < seq {
			os.Remove(filepath.Join(dir, walName(w)))
		}
	}

	f, err := os.OpenFile(filepath.Join(dir, walName(seq)), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("store: open wal: %w", err)
	}
	if err := f.Truncate(walValid); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("store: truncate torn wal tail: %w", err)
	}
	if _, err := f.Seek(walValid, 0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("store: seek wal: %w", err)
	}

	fl := &FileLog{
		dir:       dir,
		opts:      opts,
		seq:       seq,
		f:         f,
		w:         bufio.NewWriter(f),
		walBytes:  walValid,
		snapBytes: snapBytes,
	}
	rec := st.recovered()
	rec.WALBytes = walValid
	rec.SnapshotBytes = snapBytes
	return fl, rec, nil
}

// Log appends one event. Durable events are flushed and fsynced before
// returning — the single-writer append order means that sync also pins
// every buffered non-durable event before them.
func (fl *FileLog) Log(ev Event) error {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if fl.err != nil {
		return fl.err
	}
	payload, err := encodeEvent(ev)
	if err != nil {
		return fl.poison(err)
	}
	n, err := writeFrame(fl.w, payload)
	fl.walBytes += int64(n)
	if err != nil {
		return fl.poison(err)
	}
	if !ev.durable() {
		return nil
	}
	if err := fl.w.Flush(); err != nil {
		return fl.poison(err)
	}
	if err := fl.f.Sync(); err != nil {
		return fl.poison(err)
	}
	if fl.opts.CompactBytes > 0 && fl.walBytes >= fl.opts.CompactBytes {
		if err := fl.compact(); err != nil {
			return fl.poison(err)
		}
	}
	return nil
}

// loadGeneration replays generation seq from disk into a fresh state:
// snapshot-<seq> (generation 0 has none), then the valid prefix of
// wal-<seq>. It returns the snapshot's size and the WAL's valid length.
func loadGeneration(dir string, seq int) (st *replayState, snapBytes, walValid int64, err error) {
	st = newReplayState()
	if seq > 0 {
		name := snapName(seq)
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, 0, 0, fmt.Errorf("store: read snapshot: %w", err)
		}
		valid, torn, err := ReadEvents(name, data, st.apply)
		if err != nil {
			return nil, 0, 0, err
		}
		if torn || valid != int64(len(data)) {
			// Snapshots are written to a temp file and renamed into place;
			// a short one is corruption, not a crash artifact.
			return nil, 0, 0, &CorruptError{File: name, Offset: valid, Reason: "snapshot truncated"}
		}
		snapBytes = int64(len(data))
	}
	data, err := os.ReadFile(filepath.Join(dir, walName(seq)))
	if err == nil {
		walValid, _, err = ReadEvents(walName(seq), data, st.apply)
		if err != nil {
			return nil, 0, 0, err
		}
	} else if !os.IsNotExist(err) {
		return nil, 0, 0, fmt.Errorf("store: read wal: %w", err)
	}
	return st, snapBytes, walValid, nil
}

// compact replays the current generation from disk — flushed and synced
// by the durable write that triggered it — writes the result as
// snapshot-<seq+1>, atomically installs it, and starts a fresh WAL
// generation. The snapshot is thus exactly what a cold recovery of the
// same bytes builds; the log keeps no resident copy of the session.
func (fl *FileLog) compact() error {
	st, _, walValid, err := loadGeneration(fl.dir, fl.seq)
	if err != nil {
		return err
	}
	if walValid != fl.walBytes {
		return fmt.Errorf("store: compact: %s holds %d valid bytes; %d were written", walName(fl.seq), walValid, fl.walBytes)
	}
	next := fl.seq + 1
	tmp := filepath.Join(fl.dir, snapName(next)+".tmp")
	sf, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	sw := bufio.NewWriter(sf)
	var snapBytes int64
	for _, ev := range st.snapshotEvents() {
		payload, err := encodeEvent(ev)
		if err != nil {
			sf.Close()
			return err
		}
		n, err := writeFrame(sw, payload)
		snapBytes += int64(n)
		if err != nil {
			sf.Close()
			return err
		}
	}
	if err := sw.Flush(); err != nil {
		sf.Close()
		return err
	}
	if err := sf.Sync(); err != nil {
		sf.Close()
		return err
	}
	if err := sf.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(fl.dir, snapName(next))); err != nil {
		return err
	}
	syncDir(fl.dir)

	nf, err := os.OpenFile(filepath.Join(fl.dir, walName(next)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	syncDir(fl.dir)

	old, oldSeq := fl.f, fl.seq
	fl.f, fl.w = nf, bufio.NewWriter(nf)
	fl.seq, fl.walBytes, fl.snapBytes = next, 0, snapBytes
	old.Close()
	os.Remove(filepath.Join(fl.dir, walName(oldSeq)))
	if oldSeq > 0 {
		os.Remove(filepath.Join(fl.dir, snapName(oldSeq)))
	}
	return nil
}

// Close flushes, syncs and closes the WAL.
func (fl *FileLog) Close() error {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if fl.err != nil {
		fl.f.Close()
		return fl.err
	}
	if err := fl.w.Flush(); err != nil {
		fl.f.Close()
		return fl.poison(err)
	}
	if err := fl.f.Sync(); err != nil {
		fl.f.Close()
		return fl.poison(err)
	}
	return fl.f.Close()
}

// Stats reports current on-disk footprint: live WAL bytes and the size
// of the snapshot backing the current generation.
func (fl *FileLog) Stats() (walBytes, snapshotBytes int64) {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	return fl.walBytes, fl.snapBytes
}

func (fl *FileLog) poison(err error) error {
	if fl.err == nil {
		fl.err = fmt.Errorf("store: log failed, session poisoned: %w", err)
	}
	return fl.err
}

func snapName(seq int) string { return fmt.Sprintf("snapshot-%08d.snap", seq) }
func walName(seq int) string  { return fmt.Sprintf("wal-%08d.log", seq) }

// scanDir lists snapshot/WAL generations and leftover temp files.
func scanDir(dir string) (snaps, wals []int, tmps []string, err error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("store: scan %s: %w", dir, err)
	}
	for _, de := range des {
		name := de.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			tmps = append(tmps, name)
		case strings.HasPrefix(name, "snapshot-") && strings.HasSuffix(name, ".snap"):
			var seq int
			if _, err := fmt.Sscanf(name, "snapshot-%d.snap", &seq); err == nil {
				snaps = append(snaps, seq)
			}
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
			var seq int
			if _, err := fmt.Sscanf(name, "wal-%d.log", &seq); err == nil {
				wals = append(wals, seq)
			}
		}
	}
	sort.Ints(snaps)
	sort.Ints(wals)
	return snaps, wals, tmps, nil
}

// syncDir fsyncs a directory so renames and creates within it are
// durable. Best-effort: some filesystems reject directory syncs.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// QueueJournal adapts a Store into the queue's journal interface. An
// answer's Log error reaches the queue, which refuses to acknowledge an
// answer that is not on disk. The other callbacks swallow theirs: the
// store is sticky-poisoned, so the next answer or resolver commit
// surfaces the failure.
func QueueJournal(s Store) crowd.Journal {
	return queueJournal{s}
}

type queueJournal struct{ s Store }

func (j queueJournal) Posted(hits []crowd.HIT, at time.Time) {
	j.s.Log(&QueuePosted{HITs: hits, At: at})
}

func (j queueJournal) Claimed(token string, hit int, worker string, at, deadline time.Time) {
	j.s.Log(&QueueClaimed{Token: token, HIT: hit, Worker: worker, At: at, Deadline: deadline})
}

func (j queueJournal) Answered(token string, hit int, worker string, a crowd.Assignment, late bool) error {
	return j.s.Log(&QueueAnswered{Token: token, HIT: hit, Worker: worker, A: a, Late: late})
}

func (j queueJournal) Expired(claims []crowd.ExpiredClaim) {
	j.s.Log(&QueueExpired{Claims: claims})
}

func (j queueJournal) Retracted(ids []int) {
	j.s.Log(&QueueRetracted{IDs: ids})
}
