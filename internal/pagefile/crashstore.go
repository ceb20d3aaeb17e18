package pagefile

import (
	"fmt"
	"sync"
)

// CrashStore wraps a Store and journals every WritePage and Sync in
// order. The journal lets a test materialize the file exactly as it
// would exist after a power cut at any point in the write stream —
// including a torn (partially persisted) final page — and reopen it to
// verify crash recovery. Reads pass through untouched.
//
// The crash model is an ordered write stream: a power cut preserves a
// prefix of the journaled writes and loses the rest. This is the model
// the table's two-phase sync protocol is designed against (data pages,
// then barrier, then header); see the Durability model section of
// DESIGN.md. CrashStore must wrap the store from its creation (an empty
// file), so the journal is the complete history of the file.
type CrashStore struct {
	Inner Store

	mu     sync.Mutex
	events []CrashEvent
}

// CrashEvent is one journaled store operation: either a page write
// (with a private copy of the written bytes) or a sync barrier.
type CrashEvent struct {
	Sync bool
	Page uint32
	Data []byte // nil for sync events
}

// NewCrash wraps inner, which must be empty, with an empty journal.
func NewCrash(inner Store) *CrashStore {
	return &CrashStore{Inner: inner}
}

// PageSize implements Store.
func (c *CrashStore) PageSize() int { return c.Inner.PageSize() }

// NPages implements Store.
func (c *CrashStore) NPages() uint32 { return c.Inner.NPages() }

// Stats implements Store.
func (c *CrashStore) Stats() *Stats { return c.Inner.Stats() }

// ReadPage implements Store.
func (c *CrashStore) ReadPage(pageno uint32, buf []byte) error {
	return c.Inner.ReadPage(pageno, buf)
}

// WritePage implements Store, journaling a copy of the written page.
func (c *CrashStore) WritePage(pageno uint32, buf []byte) error {
	if err := c.Inner.WritePage(pageno, buf); err != nil {
		return err
	}
	c.mu.Lock()
	c.events = append(c.events, CrashEvent{Page: pageno, Data: append([]byte(nil), buf...)})
	c.mu.Unlock()
	return nil
}

// Sync implements Store, journaling a sync barrier.
func (c *CrashStore) Sync() error {
	if err := c.Inner.Sync(); err != nil {
		return err
	}
	c.mu.Lock()
	c.events = append(c.events, CrashEvent{Sync: true})
	c.mu.Unlock()
	return nil
}

// Close implements Store. The journal survives Close so a test can
// materialize crash states after shutting the table down.
func (c *CrashStore) Close() error { return c.Inner.Close() }

// Events returns a snapshot of the journal.
func (c *CrashStore) Events() []CrashEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]CrashEvent(nil), c.events...)
}

// Len reports the number of journaled events (writes and syncs).
func (c *CrashStore) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

// Materialize builds an in-memory store holding the file as a power cut
// after the first n journal events would leave it: the first n writes
// are applied in order, everything after is lost. If tornBytes is
// positive and the n'th event is a page write, only the first tornBytes
// bytes of that final write reach the page — the tail keeps whatever
// the page held before (zeros for a fresh page) — simulating a torn
// sector write. tornBytes >= the page size means the write lands whole.
func (c *CrashStore) Materialize(n int, tornBytes int) (*MemStore, error) {
	c.mu.Lock()
	events := c.events
	if n < 0 || n > len(events) {
		c.mu.Unlock()
		return nil, fmt.Errorf("pagefile: materialize prefix %d of %d events", n, len(events))
	}
	events = events[:n]
	c.mu.Unlock()

	ps := c.Inner.PageSize()
	ms := NewMem(ps)
	buf := make([]byte, ps)
	for i, ev := range events {
		if ev.Sync {
			continue
		}
		data := ev.Data
		if i == n-1 && tornBytes > 0 && tornBytes < ps {
			// Torn final write: old content (or zeros) with only the
			// first tornBytes of the new data applied.
			clear(buf)
			if err := ms.ReadPage(ev.Page, buf); err != nil && err != ErrNotAllocated {
				return nil, err
			}
			copy(buf[:tornBytes], data[:tornBytes])
			data = buf
		}
		if err := ms.WritePage(ev.Page, data); err != nil {
			return nil, err
		}
	}
	ms.Stats().Reset()
	return ms, nil
}

var _ Store = (*CrashStore)(nil)
