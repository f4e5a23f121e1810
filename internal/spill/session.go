package spill

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
)

// Session owns every temp file one query spills. The backing directory is
// created lazily on the first file and removed — with everything in it —
// by Close, which is idempotent and safe to race against file creation:
// the mutex serializes Create against Close, so a file is either created
// before the removal (and unlinked by it) or refused after it. Open file
// descriptors survive the unlink (POSIX), so operators mid-read during a
// context-cancel teardown fail at their next ctx check, not with torn
// reads, and the filesystem is clean either way.
type Session struct {
	parent string // directory to create the session dir under

	mu     sync.Mutex
	dir    string // created lazily; "" until the first file
	closed bool

	files       atomic.Int64
	spilledRows atomic.Int64
	spills      atomic.Int64
	readBytes   atomic.Int64
}

// NewSession builds a session whose files live under parent (""
// means os.TempDir()). No directory is created until the first file.
func NewSession(parent string) *Session {
	return &Session{parent: parent}
}

// Create opens a fresh temp file inside the session directory, creating
// the directory on first use. The caller owns the returned descriptor and
// should close it when done; the file itself is removed by Close.
func (s *Session) Create() (*os.File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("spill: session closed")
	}
	if s.dir == "" {
		parent := s.parent
		if parent == "" {
			parent = os.TempDir()
		}
		dir, err := os.MkdirTemp(parent, "sdb-spill-*")
		if err != nil {
			return nil, fmt.Errorf("spill: create session dir: %w", err)
		}
		s.dir = dir
	}
	f, err := os.CreateTemp(s.dir, "spill-*")
	if err != nil {
		return nil, fmt.Errorf("spill: create temp file: %w", err)
	}
	s.files.Add(1)
	return f, nil
}

// Close removes the session directory and every spill file in it. It is
// idempotent; after Close, Create fails. Open descriptors handed out by
// Create keep working until their owners close them.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.dir == "" {
		return nil
	}
	err := os.RemoveAll(s.dir)
	s.dir = ""
	return err
}

// AddSpilledRows records rows written to spill files (stats only).
func (s *Session) AddSpilledRows(n int) { s.spilledRows.Add(int64(n)) }

// AddSpill records one spill event — a blocking operator overflowing its
// budget and flushing state to disk (stats only).
func (s *Session) AddSpill() { s.spills.Add(1) }

// Files reports how many spill files the session has created.
func (s *Session) Files() int { return int(s.files.Load()) }

// SpilledRows reports the total rows written to spill files.
func (s *Session) SpilledRows() int { return int(s.spilledRows.Load()) }

// Spills reports the number of spill events.
func (s *Session) Spills() int { return int(s.spills.Load()) }

// AddReadBytes records bytes read back from spill files (stats only).
// Safe from concurrent spill workers.
func (s *Session) AddReadBytes(n int) { s.readBytes.Add(int64(n)) }

// ReadBytes reports the total bytes read back from the session's spill
// files.
func (s *Session) ReadBytes() int64 { return s.readBytes.Load() }
