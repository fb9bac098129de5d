package store

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Options parameterizes Open.
type Options struct {
	// Dir is the data directory; created if absent.
	Dir string
	// SegmentBytes rotates the active segment past this size.
	// Default 4 MiB.
	SegmentBytes int64
	// Fsync selects the durability policy (default FsyncInterval).
	Fsync FsyncPolicy
	// FsyncInterval is the batch-fsync cadence under FsyncInterval.
	// Default 100ms.
	FsyncInterval time.Duration
	// Retention drops history older than this horizon (whole segments
	// are deleted; terminal sessions are first compacted to a
	// final-summary record). 0 keeps everything forever.
	Retention time.Duration
	// CompactInterval is the retention sweep cadence. Default 1m.
	CompactInterval time.Duration
	// Now is a test hook for the clock. Default time.Now.
	Now func() time.Time
}

func (o *Options) applyDefaults() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = 100 * time.Millisecond
	}
	if o.CompactInterval <= 0 {
		o.CompactInterval = time.Minute
	}
	if o.Now == nil {
		o.Now = time.Now
	}
}

// Session is a recovered session as rebuilt from the WAL: what the
// registry needs to re-register it after a restart.
type Session struct {
	ID         string
	ConfigJSON []byte
	Seed       int64
	State      string
	Terminal   bool
	Err        string
	Retries    int
	Created    time.Time
	Started    time.Time
	Finished   time.Time
	// LastPoint is the newest persisted estimate snapshot (zero when
	// the session never published one); Points is the series length.
	LastPoint Point
	Points    int
}

// RecoveryInfo summarizes what Open replayed.
type RecoveryInfo struct {
	// Sessions are the recovered sessions in creation order.
	Sessions []Session
	// Totals are the registry lifetime counters at the crash/shutdown.
	Totals Totals
	// Segments and Records count what was scanned; TornTails counts
	// segments that ended in a torn or corrupt frame.
	Segments  int
	Records   int
	TornTails int
	// Duration is how long the replay took.
	Duration time.Duration
}

// sessionRec is the in-memory index entry behind one session.
type sessionRec struct {
	id      string
	cfgJSON []byte
	seed    int64
	state   string
	term    bool
	errMsg  string
	retries int

	createdNs, startedNs, finishedNs int64

	points []Point

	// idSeg is the segment holding the session's newest identity record
	// (created or final); compaction re-writes the identity forward
	// before dropping that segment.
	idSeg int
}

func (sr *sessionRec) lastPoint() (Point, bool) {
	if len(sr.points) == 0 {
		return Point{}, false
	}
	return sr.points[len(sr.points)-1], true
}

func (sr *sessionRec) view() Session {
	v := Session{
		ID:         sr.id,
		ConfigJSON: sr.cfgJSON,
		Seed:       sr.seed,
		State:      sr.state,
		Terminal:   sr.term,
		Err:        sr.errMsg,
		Retries:    sr.retries,
		Created:    timeOf(sr.createdNs),
		Started:    timeOf(sr.startedNs),
		Finished:   timeOf(sr.finishedNs),
		Points:     len(sr.points),
	}
	if p, ok := sr.lastPoint(); ok {
		v.LastPoint = p
	}
	return v
}

// Store is the durable measurement archive. All methods are safe for
// concurrent use. The event-append methods (SessionCreated,
// SessionState, SessionPoint, RegistryTotals) satisfy the registry's
// sink interface and surface real WAL append/fsync errors (disk full,
// I/O error) to the caller — the fleet's store circuit breaker uses
// them to trip into its spill buffer. Every error is also tallied in
// Stats (WriteErrors/FsyncErrors) so silent loss is visible on
// /metrics. Appends after Close are dropped and counted, never a
// panic.
type Store struct {
	opts Options

	mu       sync.Mutex
	w        wal
	sessions map[string]*sessionRec
	order    []string
	totals   Totals
	buf      []byte // reusable framed-record scratch
	closed   bool

	recordsReplayed atomic.Int64
	tornTails       atomic.Int64
	recoveryNanos   atomic.Int64
	compactions     atomic.Int64
	droppedClosed   atomic.Int64

	stopBg chan struct{}
	bgDone sync.WaitGroup
}

// Open creates or reopens the archive at opts.Dir, replaying every
// segment to rebuild the session index. A torn or truncated tail ends
// a segment's replay without error; the bad tail of the active segment
// is truncated away so appends continue a clean prefix.
func Open(opts Options) (*Store, RecoveryInfo, error) {
	opts.applyDefaults()
	if opts.Dir == "" {
		return nil, RecoveryInfo{}, fmt.Errorf("store: no data directory")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, RecoveryInfo{}, err
	}
	s := &Store{
		opts:     opts,
		sessions: make(map[string]*sessionRec),
		stopBg:   make(chan struct{}),
	}
	s.w = wal{dir: opts.Dir, segmentBytes: opts.SegmentBytes, policy: opts.Fsync}

	start := time.Now()
	info, err := s.replay()
	if err != nil {
		return nil, RecoveryInfo{}, err
	}
	info.Duration = time.Since(start)
	s.recoveryNanos.Store(int64(info.Duration))
	s.recordsReplayed.Store(int64(info.Records))
	s.tornTails.Store(int64(info.TornTails))
	info.Totals = s.totals
	info.Sessions = s.sessionViewsLocked()

	// Background fsync batching and retention sweeps.
	if opts.Fsync == FsyncInterval {
		s.bgDone.Add(1)
		go s.fsyncLoop()
	}
	if opts.Retention > 0 {
		s.bgDone.Add(1)
		go s.compactLoop()
	}
	return s, info, nil
}

// replay scans every segment and opens the newest for append.
func (s *Store) replay() (RecoveryInfo, error) {
	var info RecoveryInfo
	indexes, err := listSegments(s.opts.Dir)
	if err != nil {
		return info, err
	}
	info.Segments = len(indexes)

	lastIdx := 1
	lastValid := int64(0)
	var lastMeta segMeta
	for i, idx := range indexes {
		path := filepath.Join(s.opts.Dir, segName(idx))
		raw, err := os.ReadFile(path)
		if err != nil {
			return info, err
		}
		meta := segMeta{index: idx, size: int64(len(raw))}
		goodMagic := len(raw) >= len(segMagic) && [8]byte(raw[:8]) == segMagic
		valid := 0
		clean := false
		if goodMagic {
			body := raw[len(segMagic):]
			grow := pointCounts(body)
			valid, clean = scanSegment(body, func(rec record) {
				info.Records++
				s.applyLocked(rec, idx, &meta, grow)
			})
		}
		if !clean {
			info.TornTails++
		}
		validSize := int64(0) // bad magic: re-initialize if it becomes active
		if goodMagic {
			validSize = int64(len(segMagic) + valid)
		}
		if i == len(indexes)-1 {
			lastIdx, lastValid, lastMeta = idx, validSize, meta
		} else {
			meta.size = validSize
			s.w.sealed = append(s.w.sealed, meta)
		}
	}
	if err := s.w.openActive(lastIdx, lastValid, lastMeta); err != nil {
		return info, err
	}
	// A full recovered segment rotates immediately on the next append;
	// that is fine.
	return info, nil
}

// applyLocked folds one replayed record into the index. seg is the
// segment it came from; meta collects the segment's time bounds; grow
// holds the segment's point-record count per session, so a series grows
// once per segment instead of one append at a time.
func (s *Store) applyLocked(rec record, seg int, meta *segMeta, grow map[string]*int) {
	switch rec.typ {
	case recCreated:
		sr := s.upsertLocked(rec.id)
		sr.cfgJSON = rec.cfgJSON
		sr.createdNs = rec.at
		if rec.seed != 0 {
			sr.seed = rec.seed
		}
		sr.idSeg = seg
		meta.note(rec.at)
	case recState:
		sr := s.upsertLocked(rec.id)
		s.applyStateLocked(sr, rec.state, rec.term, rec.errMsg, rec.retries, rec.seed, rec.at)
		meta.note(rec.at)
	case recPoint:
		sr := s.upsertLocked(rec.id)
		if len(sr.points) == cap(sr.points) {
			if c := grow[rec.id]; c != nil {
				sr.points = slices.Grow(sr.points, *c)
			}
		}
		sr.addPoint(rec.point)
		meta.note(rec.point.At)
	case recTotals:
		s.totals.maxTotals(rec.totals)
		meta.note(rec.at)
	case recFinal:
		sr := s.upsertLocked(rec.id)
		sr.cfgJSON = rec.cfgJSON
		sr.createdNs = rec.created
		sr.startedNs = rec.started
		sr.finishedNs = rec.finished
		if rec.seed != 0 {
			sr.seed = rec.seed
		}
		sr.state = rec.state
		sr.term = rec.term
		sr.errMsg = rec.errMsg
		sr.retries = rec.retries
		if rec.point.At != 0 {
			sr.addPoint(rec.point)
		}
		sr.idSeg = seg
		meta.note(rec.finished)
	}
}

func (m *segMeta) note(at int64) {
	if at == 0 {
		return
	}
	if m.firstAt == 0 || at < m.firstAt {
		m.firstAt = at
	}
	if at > m.lastAt {
		m.lastAt = at
	}
}

func (s *Store) upsertLocked(id string) *sessionRec {
	sr, ok := s.sessions[id]
	if !ok {
		sr = &sessionRec{id: id, state: "pending"}
		s.sessions[id] = sr
		s.order = append(s.order, id)
	}
	return sr
}

// addPoint appends monotonically: replay may present the same point
// twice (a recFinal echoes the last live point), so equal-or-older
// timestamps are dropped.
func (sr *sessionRec) addPoint(p Point) {
	if last, ok := sr.lastPoint(); ok && p.At <= last.At {
		return
	}
	sr.points = append(sr.points, p)
}

func (s *Store) applyStateLocked(sr *sessionRec, state string, term bool, errMsg string, retries int, seed, atNs int64) {
	sr.state = state
	sr.term = term
	sr.errMsg = errMsg
	sr.retries = retries
	if seed != 0 {
		sr.seed = seed
	}
	switch {
	case term:
		sr.finishedNs = atNs
	case state == "running" && sr.startedNs == 0:
		sr.startedNs = atNs
	case state == "pending":
		// a retry re-queues: the next running transition restamps.
		sr.startedNs = 0
	}
}

func (s *Store) sessionViewsLocked() []Session {
	out := make([]Session, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.sessions[id].view())
	}
	sort.SliceStable(out, func(i, j int) bool {
		if !out[i].Created.Equal(out[j].Created) {
			return out[i].Created.Before(out[j].Created)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// --- event sink (the registry's write path) ---

// SessionCreated records a new session and its (defaulted) config. The
// returned error is the WAL append/fsync failure, if any; the in-memory
// index is updated either way, so queries keep working while a breaker
// handles durability.
func (s *Store) SessionCreated(id string, at time.Time, cfgJSON []byte, seed int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dropIfClosedLocked() {
		return nil
	}
	sr := s.upsertLocked(id)
	sr.cfgJSON = append([]byte(nil), cfgJSON...)
	sr.createdNs = at.UnixNano()
	if seed != 0 {
		sr.seed = seed
	}
	sr.idSeg = s.w.activeIndex()

	s.buf = s.buf[:0]
	s.buf = append(s.buf, zeroHdr[:]...)
	s.buf = append(s.buf, recCreated)
	s.buf = appendStr(s.buf, id)
	s.buf = appendI64(s.buf, at.UnixNano())
	s.buf = appendI64(s.buf, seed)
	s.buf = appendBytes(s.buf, cfgJSON)
	return s.w.append(frame(s.buf, 0), at.UnixNano())
}

// SessionState records a lifecycle transition.
func (s *Store) SessionState(id string, at time.Time, state string, terminal bool, errMsg string, retries int, seed int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dropIfClosedLocked() {
		return nil
	}
	sr := s.upsertLocked(id)
	s.applyStateLocked(sr, state, terminal, errMsg, retries, seed, at.UnixNano())

	s.buf = s.buf[:0]
	s.buf = append(s.buf, zeroHdr[:]...)
	s.buf = append(s.buf, recState)
	s.buf = appendStr(s.buf, id)
	s.buf = appendI64(s.buf, at.UnixNano())
	s.buf = appendStr(s.buf, state)
	var flags byte
	if terminal {
		flags |= 1
	}
	s.buf = append(s.buf, flags)
	s.buf = appendU64(s.buf, uint64(retries))
	s.buf = appendI64(s.buf, seed)
	s.buf = appendStr(s.buf, errMsg)
	return s.w.append(frame(s.buf, 0), at.UnixNano())
}

// SessionPoint appends one estimate snapshot to a session's series.
// This is the steady-state hot path: the encode is allocation-free.
func (s *Store) SessionPoint(id string, p Point) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dropIfClosedLocked() {
		return nil
	}
	s.upsertLocked(id).addPoint(p)
	s.encodePointLocked(id, p)
	return s.w.append(s.buf, p.At)
}

// encodePointLocked builds the framed recPoint into s.buf.
func (s *Store) encodePointLocked(id string, p Point) {
	s.buf = s.buf[:0]
	s.buf = append(s.buf, zeroHdr[:]...)
	s.buf = append(s.buf, recPoint)
	s.buf = appendStr(s.buf, id)
	s.buf = appendPoint(s.buf, p)
	frame(s.buf, 0)
}

// RegistryTotals records the registry's lifetime counters; the newest
// record seeds the counters after a restart so totals stay monotone.
func (s *Store) RegistryTotals(t Totals) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dropIfClosedLocked() {
		return nil
	}
	s.totals.maxTotals(t)
	at := s.opts.Now().UnixNano()
	s.buf = s.buf[:0]
	s.buf = append(s.buf, zeroHdr[:]...)
	s.buf = append(s.buf, recTotals)
	s.buf = appendI64(s.buf, at)
	s.buf = appendTotals(s.buf, t)
	return s.w.append(frame(s.buf, 0), at)
}

func (s *Store) dropIfClosedLocked() bool {
	if s.closed {
		s.droppedClosed.Add(1)
		return true
	}
	return false
}

// --- queries ---

// History returns the persisted estimate series for a session within
// [from, to] (zero bounds are open). ok reports whether the session is
// known to the archive.
func (s *Store) History(id string, from, to time.Time) (points []Point, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sr, found := s.sessions[id]
	if !found {
		return nil, false
	}
	fromNs, toNs := rangeNs(from, to)
	out := make([]Point, 0, len(sr.points))
	for _, p := range sr.points {
		if p.At < fromNs || p.At > toNs {
			continue
		}
		out = append(out, p)
	}
	return out, true
}

func rangeNs(from, to time.Time) (int64, int64) {
	fromNs := int64(0)
	if !from.IsZero() {
		fromNs = from.UnixNano()
	}
	toNs := int64(1<<63 - 1)
	if !to.IsZero() {
		toNs = to.UnixNano()
	}
	return fromNs, toNs
}

// ReleaseHistory trims a session's in-memory series to its newest point.
// The registry calls it once it has deleted the session, after which no
// query can read the older points. Identity and newest point stay, so
// compaction's carry-forward and the restored view are unchanged; the
// WAL is not touched, so a restart replays the full series as before.
func (s *Store) ReleaseHistory(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sr, ok := s.sessions[id]; ok && len(sr.points) > 1 {
		sr.points = []Point{sr.points[len(sr.points)-1]}
	}
}

// Sessions returns every archived session in creation order.
func (s *Store) Sessions() []Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessionViewsLocked()
}

// Totals returns the persisted registry counters.
func (s *Store) Totals() Totals {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.totals
}

// Stats is the archive's operational snapshot (the /store/stats and
// /metrics source).
type Stats struct {
	Dir               string  `json:"dir"`
	Sessions          int     `json:"sessions"`
	Points            int     `json:"points"`
	Segments          int     `json:"segments"`
	BytesWritten      int64   `json:"bytes_written"`
	RecordsWritten    int64   `json:"records_written"`
	RecordsReplayed   int64   `json:"records_replayed"`
	TornTails         int64   `json:"torn_tails"`
	RecoverySeconds   float64 `json:"recovery_seconds"`
	Fsyncs            int64   `json:"fsyncs"`
	FsyncSeconds      float64 `json:"fsync_seconds_total"`
	SegmentsCreated   int64   `json:"segments_created"`
	SegmentsDropped   int64   `json:"segments_dropped"`
	Compactions       int64   `json:"compactions"`
	DroppedAfterClose int64   `json:"dropped_after_close"`
	// WriteErrors and FsyncErrors are cumulative WAL append/fsync
	// failures — the alertable silent-loss signal (a healthy archive
	// keeps both at zero).
	WriteErrors      int64   `json:"write_errors"`
	FsyncErrors      int64   `json:"fsync_errors"`
	FsyncPolicy      string  `json:"fsync_policy"`
	RetentionSeconds float64 `json:"retention_seconds"`
	LastError        string  `json:"last_error,omitempty"`
}

// Stats snapshots the archive's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	nSessions := len(s.sessions)
	nPoints := 0
	for _, sr := range s.sessions {
		nPoints += len(sr.points)
	}
	segments := s.w.segmentCount()
	s.mu.Unlock()
	st := Stats{
		Dir:               s.opts.Dir,
		Sessions:          nSessions,
		Points:            nPoints,
		Segments:          segments,
		BytesWritten:      s.w.bytesWritten.Load(),
		RecordsWritten:    s.w.recordsWritten.Load(),
		RecordsReplayed:   s.recordsReplayed.Load(),
		TornTails:         s.tornTails.Load(),
		RecoverySeconds:   time.Duration(s.recoveryNanos.Load()).Seconds(),
		Fsyncs:            s.w.fsyncs.Load(),
		FsyncSeconds:      time.Duration(s.w.fsyncNanos.Load()).Seconds(),
		SegmentsCreated:   s.w.segmentsCreated.Load(),
		SegmentsDropped:   s.w.segmentsDropped.Load(),
		Compactions:       s.compactions.Load(),
		DroppedAfterClose: s.droppedClosed.Load(),
		WriteErrors:       s.w.writeErrors.Load(),
		FsyncErrors:       s.w.fsyncErrors.Load(),
		FsyncPolicy:       s.opts.Fsync.String(),
		RetentionSeconds:  s.opts.Retention.Seconds(),
	}
	if e, ok := s.w.lastErr.Load().(string); ok {
		st.LastError = e
	}
	return st
}

// --- retention / compaction ---

// Compact applies the retention policy now: terminal sessions whose
// identity lives in expiring segments are first re-written as a single
// final-summary record, then whole sealed segments older than the
// horizon are deleted and the in-memory series trimmed to match. A
// no-op without a retention horizon.
func (s *Store) Compact() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.opts.Retention <= 0 {
		return
	}
	s.compactLocked(s.opts.Now())
}

func (s *Store) compactLocked(now time.Time) {
	horizon := now.Add(-s.opts.Retention).UnixNano()
	expiring := make(map[int]bool)
	for _, m := range s.w.sealed {
		if m.lastAt != 0 && m.lastAt < horizon {
			expiring[m.index] = true
		}
	}
	if len(expiring) == 0 {
		return
	}
	// Carry every session whose identity record is about to vanish
	// forward into the active segment as one final-summary record, so a
	// restart after the drop still knows it.
	for _, id := range s.order {
		sr := s.sessions[id]
		if expiring[sr.idSeg] {
			s.appendFinalLocked(sr)
		}
	}
	s.w.dropSealed(func(m segMeta) bool { return !expiring[m.index] })
	// The on-disk series older than the horizon is gone (segment
	// granularity); trim the queryable series to the same horizon,
	// always keeping the newest point so final estimates survive.
	for _, sr := range s.sessions {
		sr.trimBefore(horizon)
	}
	s.compactions.Add(1)
}

func (sr *sessionRec) trimBefore(horizonNs int64) {
	cut := 0
	for cut < len(sr.points)-1 && sr.points[cut].At < horizonNs {
		cut++
	}
	if cut > 0 {
		sr.points = append(sr.points[:0], sr.points[cut:]...)
	}
}

// appendFinalLocked writes a whole-session summary record.
func (s *Store) appendFinalLocked(sr *sessionRec) {
	last, _ := sr.lastPoint()
	s.buf = s.buf[:0]
	s.buf = append(s.buf, zeroHdr[:]...)
	s.buf = append(s.buf, recFinal)
	s.buf = appendStr(s.buf, sr.id)
	s.buf = appendI64(s.buf, sr.createdNs)
	s.buf = appendI64(s.buf, sr.startedNs)
	s.buf = appendI64(s.buf, sr.finishedNs)
	s.buf = appendI64(s.buf, sr.seed)
	s.buf = appendStr(s.buf, sr.state)
	var flags byte
	if sr.term {
		flags |= 1
	}
	s.buf = append(s.buf, flags)
	s.buf = appendU64(s.buf, uint64(sr.retries))
	s.buf = appendStr(s.buf, sr.errMsg)
	s.buf = appendBytes(s.buf, sr.cfgJSON)
	s.buf = appendPoint(s.buf, last)
	s.w.append(frame(s.buf, 0), s.opts.Now().UnixNano())
	sr.idSeg = s.w.activeIndex()
}

// --- background loops / shutdown ---

func (s *Store) fsyncLoop() {
	defer s.bgDone.Done()
	t := time.NewTicker(s.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stopBg:
			return
		case <-t.C:
			s.mu.Lock()
			if !s.closed {
				s.w.fsync()
			}
			s.mu.Unlock()
		}
	}
}

func (s *Store) compactLoop() {
	defer s.bgDone.Done()
	t := time.NewTicker(s.opts.CompactInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stopBg:
			return
		case <-t.C:
			s.Compact()
		}
	}
}

// Sync forces pending appends to stable storage regardless of policy.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	if s.w.policy == FsyncNever {
		if s.w.active != nil && s.w.dirty {
			s.w.dirty = false
			return s.w.active.f.Sync()
		}
		return nil
	}
	return s.w.fsync()
}

// Close flushes the WAL and closes the active segment. Later appends
// are counted and dropped, never an error or panic — the registry
// guarantees it closes the store only after the last session goroutine
// joins, so drops indicate a bug and are surfaced in Stats.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.stopBg)
	policy := s.w.policy
	if policy == FsyncNever && s.w.active != nil && s.w.dirty {
		// Final flush on shutdown even under "never": a graceful drain
		// should leave a durable archive.
		s.w.policy = FsyncInterval
	}
	err := s.w.close()
	s.mu.Unlock()
	s.bgDone.Wait()
	return err
}
