#include "storage/txn.h"

#include <utility>

#include "storage/table.h"

namespace eqsql::storage {

void Transaction::RecordAccess(const std::shared_ptr<Table>& table) {
  if (table == nullptr) return;
  auto [it, inserted] = accessed_.try_emplace(table.get(), table);
  if (!inserted && it->second == nullptr) it->second = table;
}

void Transaction::RecordAccess(Table* table) {
  if (table == nullptr) return;
  accessed_.try_emplace(table, nullptr);
}

void Transaction::RecordKeyRead(KeyRead read) {
  key_reads_.push_back(std::move(read));
}

void Transaction::RecordWrite(WriteRecord record) {
  // Writes deliberately do NOT join the read-validation set: write-write
  // conflicts are caught at version granularity (Table::CheckWritable's
  // first-writer-wins ladder), so two transactions blind-writing
  // different rows of one table commit without a spurious table-level
  // conflict. The record's own pin keeps the table alive.
  writes_.push_back(std::move(record));
}

TxnManager::~TxnManager() {
  for (const Retired& r : retired_) delete r.version;
}

std::shared_ptr<Transaction> TxnManager::Begin() {
  auto txn = std::make_shared<Transaction>();
  txn->id_ = next_txn_id_.fetch_add(1, std::memory_order_acq_rel);
  Ts ts;
  {
    // Pin under mu_: pins and GC retires order through this mutex, so
    // a snapshot pinned after a version was retired can no longer
    // reach it through any chain.
    std::lock_guard<std::mutex> lock(mu_);
    ts = clock_.load(std::memory_order_acquire);
    pins_.insert(ts);
  }
  txn->snapshot_ = Snapshot{ts, txn->id_};
  if (m_begins_ != nullptr) m_begins_->Increment();
  return txn;
}

Status TxnManager::Commit(Transaction* txn) {
  if (!txn->active_) {
    return Status::InvalidArgument("transaction is not active");
  }
  std::lock_guard<std::mutex> commit(commit_mu_);
  // Commit-order serializability: everything this transaction READ
  // must be unchanged since its snapshot; then its reads are exactly
  // what a serial execution at this commit point would see, which is
  // what makes the fuzzer's single-threaded commit-order replay a
  // sound oracle. A table read fails on any later commit to the table;
  // a key read only on a later commit to that key's slot, unless the
  // table was also read whole. Writes are validated per version
  // (first-writer-wins in Table::CheckWritable), not here.
  auto fail = [&](const std::string& what) {
    if (m_validation_conflicts_ != nullptr) {
      m_validation_conflicts_->Increment();
    }
    Status conflict = Status::TxnConflict(
        "serialization conflict: " + what + " committed after snapshot " +
        std::to_string(txn->snapshot_.ts));
    RollbackLocked(txn);
    return conflict;
  };
  const Ts ts = txn->snapshot_.ts;
  for (const auto& [table, pin] : txn->accessed_) {
    if (table->last_commit_ts() > ts) return fail("table " + table->name());
  }
  for (const KeyRead& read : txn->key_reads_) {
    if (txn->accessed_.count(read.table) != 0) continue;
    if (read.table->KeyWrittenSince(read.key, read.key_epoch, ts)) {
      return fail("key " + read.key.ToString() + " of table " +
                   read.table->name());
    }
  }
  txn->commit_seq_ = ++next_commit_seq_;
  if (txn->writes_.empty()) {
    // Read-only: serializable at its snapshot, which validation just
    // proved equivalent to this commit point. No clock advance.
    txn->commit_ts_ = clock_.load(std::memory_order_acquire);
  } else {
    const Ts c = clock_.load(std::memory_order_acquire) + 1;
    // Each table's net change to its committed statistics: a created
    // version's row becomes committed, a superseded one's stops being.
    // A version both created and superseded inside this transaction
    // nets to zero.
    struct Delta {
      int64_t rows = 0;
      int64_t bytes = 0;
    };
    std::map<Table*, Delta> deltas;
    size_t superseded = 0;
    for (const WriteRecord& w : txn->writes_) {
      Delta& d = deltas[w.table];
      if (w.created != nullptr) {
        w.created->begin.store(c, std::memory_order_release);
        d.rows += 1;
        d.bytes += static_cast<int64_t>(w.created->wire_size);
      }
      if (w.superseded != nullptr) {
        w.superseded->end.store(c, std::memory_order_release);
        d.rows -= 1;
        d.bytes -= static_cast<int64_t>(w.superseded->wire_size);
        ++superseded;
      }
    }
    dead_versions_.fetch_add(superseded, std::memory_order_relaxed);
    for (const auto& [table, d] : deltas) table->NoteCommit(c, d.rows, d.bytes);
    // Publish last: a reader whose pin observes clock >= c is
    // guaranteed (acquire/release on clock_) to see every stamp above.
    clock_.store(c, std::memory_order_release);
    txn->commit_ts_ = c;
  }
  txn->active_ = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    UnpinLocked(txn->snapshot_.ts);
  }
  if (m_commits_ != nullptr) m_commits_->Increment();
  return Status::OK();
}

void TxnManager::Rollback(Transaction* txn) { RollbackLocked(txn); }

void TxnManager::RollbackLocked(Transaction* txn) {
  if (!txn->active_) return;
  // Reverse order: a version created then superseded inside this same
  // transaction first gets its end restored, then its begin aborted.
  size_t aborted = 0;
  for (auto it = txn->writes_.rbegin(); it != txn->writes_.rend(); ++it) {
    if (it->created != nullptr) {
      it->created->begin.store(kTsAborted, std::memory_order_release);
      ++aborted;
    }
    if (it->superseded != nullptr) {
      it->superseded->end.store(kTsInfinity, std::memory_order_release);
    }
  }
  dead_versions_.fetch_add(aborted, std::memory_order_relaxed);
  txn->active_ = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    UnpinLocked(txn->snapshot_.ts);
  }
  if (m_rollbacks_ != nullptr) m_rollbacks_->Increment();
}

Ts TxnManager::PinSnapshot() {
  std::lock_guard<std::mutex> lock(mu_);
  Ts ts = clock_.load(std::memory_order_acquire);
  pins_.insert(ts);
  return ts;
}

void TxnManager::Unpin(Ts ts) {
  std::lock_guard<std::mutex> lock(mu_);
  UnpinLocked(ts);
}

void TxnManager::UnpinLocked(Ts ts) {
  auto it = pins_.find(ts);
  if (it != pins_.end()) pins_.erase(it);
}

Ts TxnManager::Watermark() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (pins_.empty()) return clock_.load(std::memory_order_acquire);
  return *pins_.begin();
}

void TxnManager::Retire(std::vector<Version*> versions) {
  std::lock_guard<std::mutex> lock(mu_);
  const Ts retire_ts = clock_.load(std::memory_order_acquire);
  retired_.reserve(retired_.size() + versions.size());
  for (Version* v : versions) retired_.push_back(Retired{v, retire_ts});
}

void TxnManager::SweepRetired() {
  std::vector<Version*> to_free;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const Ts min_pin = pins_.empty() ? kTsInfinity : *pins_.begin();
    auto keep = retired_.begin();
    for (auto it = retired_.begin(); it != retired_.end(); ++it) {
      // Free only once every pin that could predate the unlink is
      // gone: a pin taken after the retire (ordered through mu_) has
      // already synchronized with the unlink and cannot reach v.
      if (it->retire_ts < min_pin) {
        to_free.push_back(it->version);
      } else {
        *keep++ = *it;
      }
    }
    retired_.erase(keep, retired_.end());
  }
  if (!to_free.empty() && m_gc_reclaimed_ != nullptr) {
    m_gc_reclaimed_->Add(static_cast<int64_t>(to_free.size()));
  }
  for (Version* v : to_free) delete v;
}

size_t TxnManager::retired_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retired_.size();
}

void TxnManager::set_metrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) return;
  m_begins_ = metrics->counter("storage.mvcc.begins");
  m_commits_ = metrics->counter("storage.mvcc.commits");
  m_validation_conflicts_ =
      metrics->counter("storage.mvcc.validation_conflicts");
  m_write_conflicts_ = metrics->counter("storage.mvcc.write_conflicts");
  m_rollbacks_ = metrics->counter("storage.mvcc.rollbacks");
  m_versions_ = metrics->counter("storage.mvcc.versions");
  m_gc_reclaimed_ = metrics->counter("storage.mvcc.gc_reclaimed");
}

void TxnManager::NoteVersionInstalled() {
  if (m_versions_ != nullptr) m_versions_->Increment();
}

void TxnManager::NoteWriteConflict() {
  if (m_write_conflicts_ != nullptr) m_write_conflicts_->Increment();
}

}  // namespace eqsql::storage
