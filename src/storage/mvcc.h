#ifndef EQSQL_STORAGE_MVCC_H_
#define EQSQL_STORAGE_MVCC_H_

#include <atomic>
#include <cstdint>

#include "catalog/schema.h"

namespace eqsql::storage {

/// Commit timestamp. The commit clock starts at 1 and advances by one
/// per committing write transaction, so committed timestamps occupy
/// [1, kTsPendingBase). Values at or above kTsPendingBase (except
/// kTsInfinity) are *pending markers*: a version stamped with
/// TsPendingFor(id) in its begin (or end) field has been created (or
/// deleted) by transaction `id`, which has not committed yet.
using Ts = uint64_t;

inline constexpr Ts kTsInfinity = ~0ull;
inline constexpr Ts kTsPendingBase = 1ull << 62;
/// Begin stamp of a rolled-back version: the pending marker of
/// transaction 0, which is never allocated, so an aborted version is
/// visible to no snapshot and no transaction.
inline constexpr Ts kTsAborted = kTsPendingBase;

constexpr bool TsIsPending(Ts ts) {
  return ts >= kTsPendingBase && ts != kTsInfinity;
}
constexpr uint64_t TsPendingTxn(Ts ts) { return ts - kTsPendingBase; }
constexpr Ts TsPendingFor(uint64_t txn_id) { return kTsPendingBase + txn_id; }

/// A reader's fixed point in commit-timestamp order. `ts` is the newest
/// commit timestamp the reader observes; `txn_id` is non-zero inside a
/// transaction so the reader additionally sees (and hides) its own
/// uncommitted writes (read-your-own-writes).
struct Snapshot {
  Ts ts = kTsPendingBase - 1;
  uint64_t txn_id = 0;

  /// Sees every committed version; used by single-threaded setup code
  /// and read paths that never run concurrently with writers.
  static Snapshot Latest() { return Snapshot{}; }
};

/// One immutable row version in a slot's newest-first chain. `begin`
/// and `end` are commit timestamps or pending markers; `row` never
/// changes after construction, and `wire_size` is its
/// catalog::RowWireSize, computed once here so scans and the committed
/// byte counters read it instead of re-walking the row; `next` points
/// at the superseded (older) version. GC unlinks dead versions by
/// rewriting head/next, so readers traverse the chain with acquire
/// loads and never take a lock.
struct Version {
  std::atomic<Ts> begin;
  std::atomic<Ts> end{kTsInfinity};
  const catalog::Row row;
  const size_t wire_size;
  std::atomic<Version*> next{nullptr};

  Version(catalog::Row r, Ts begin_ts)
      : begin(begin_ts),
        row(std::move(r)),
        wire_size(catalog::RowWireSize(row)) {}
};

/// Whether a version stamped (begin, end) is visible to `snap`.
/// Pending begin: visible only to the owning transaction. Pending end:
/// the owning transaction has deleted/superseded it, so it is hidden
/// from the owner but still visible to everyone else. Committed stamps
/// compare against snap.ts half-open: visible iff begin <= ts < end.
inline bool TsVisible(Ts begin, Ts end, const Snapshot& snap) {
  if (TsIsPending(begin)) {
    if (snap.txn_id == 0 || TsPendingTxn(begin) != snap.txn_id) return false;
  } else if (begin > snap.ts) {
    return false;
  }
  if (end == kTsInfinity) return true;
  if (TsIsPending(end)) {
    return snap.txn_id == 0 || TsPendingTxn(end) != snap.txn_id;
  }
  return end > snap.ts;
}

}  // namespace eqsql::storage

#endif  // EQSQL_STORAGE_MVCC_H_
