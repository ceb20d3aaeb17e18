// Package unixhash is a Go reproduction of "A New Hashing Package for
// UNIX" (Seltzer & Yigit, USENIX Winter 1991): a linear-hashing key/data
// store unifying disk-resident (dbm/ndbm) and memory-resident (hsearch)
// UNIX hashing behind the paper's key/data interface (internal/db, with
// ndbm and hsearch compatibility in internal/compat), clean-room ports of
// every baseline the paper compares against, and a benchmark harness
// regenerating every figure in its evaluation.
//
// The root package holds the per-figure benchmarks and end-to-end tests;
// the implementation lives under internal/ (see README.md for the map)
// and the tools under cmd/.
package unixhash
