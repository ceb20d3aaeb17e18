package db

import "unixhash/internal/core"

// Transactions at the db layer: the write-ahead log (core Options.WAL on
// a single table, the directory log on a sharded database) powers
// Begin/Commit, and a database opened without one reports core.ErrNoWAL
// at Begin.

// Txn is an atomic batch of puts and deletes against a DB: operations
// buffer until Commit makes them durable and visible as a unit (one log
// append + fsync), and Rollback discards them. A Txn
// is not safe for concurrent use by multiple goroutines; independent
// Txns from the same DB may commit concurrently and share a group-commit
// fsync. After Commit or Rollback the Txn is spent.
type Txn interface {
	// Put buffers an insert-or-replace of key -> data. Bytes are copied,
	// so the caller may reuse its slices.
	Put(key, data []byte) error
	// Delete buffers a delete of key. Deleting an absent key is not an
	// error at commit time (redo-log "ensure absent" semantics).
	Delete(key []byte) error
	// Commit makes every buffered op durable and visible atomically.
	Commit() error
	// Rollback discards the transaction; the database is untouched.
	Rollback() error
}

// Static check: the core transaction is usable wherever a db.Txn is.
var _ Txn = (*core.Txn)(nil)
