#include "storage/table.h"

#include <algorithm>
#include <mutex>
#include <utility>

#include "storage/index.h"
#include "storage/txn.h"

namespace eqsql::storage {

TableSlot::~TableSlot() {
  Version* v = head.load(std::memory_order_acquire);
  while (v != nullptr) {
    Version* next = v->next.load(std::memory_order_acquire);
    delete v;
    v = next;
  }
}

const Version* TableSlot::VisibleVersion(const Snapshot& snap) const {
  for (const Version* v = head.load(std::memory_order_acquire); v != nullptr;
       v = v->next.load(std::memory_order_acquire)) {
    Ts b = v->begin.load(std::memory_order_acquire);
    Ts e = v->end.load(std::memory_order_acquire);
    if (TsVisible(b, e, snap)) return v;
  }
  return nullptr;
}

const catalog::Row* TableSlot::VisibleRow(const Snapshot& snap) const {
  const Version* v = VisibleVersion(snap);
  return v == nullptr ? nullptr : &v->row;
}

Version* Table::NewestMeaningful(const Slot& slot) {
  for (Version* v = slot.head.load(std::memory_order_acquire); v != nullptr;
       v = v->next.load(std::memory_order_acquire)) {
    if (v->begin.load(std::memory_order_acquire) != kTsAborted) return v;
  }
  return nullptr;
}

Status Table::WriteConflict(const std::string& what) const {
  if (txns_ != nullptr) txns_->NoteWriteConflict();
  return Status::TxnConflict("write-write conflict on table " + name_ + ": " +
                             what);
}

Status Table::CheckWritable(const Slot& slot, const Version* expected,
                            const Transaction& txn) const {
  Version* newest = NewestMeaningful(slot);
  if (newest != expected) {
    return WriteConflict("row version superseded since snapshot " +
                         std::to_string(txn.snapshot().ts));
  }
  if (newest == nullptr) return Status::OK();
  Ts end = newest->end.load(std::memory_order_acquire);
  if (end == kTsInfinity) return Status::OK();
  if (TsIsPending(end) && TsPendingTxn(end) == txn.id()) return Status::OK();
  return WriteConflict("row deleted by a concurrent transaction (snapshot " +
                       std::to_string(txn.snapshot().ts) + ")");
}

std::vector<catalog::Row> Table::rows(const Snapshot& snap) const {
  std::vector<std::pair<size_t, catalog::Row>> acc;
  std::vector<size_t> run_ends;
  {
    std::shared_lock<std::shared_mutex> topology(topology_mu_);
    for (const auto& shard : shards_) {
      std::vector<std::shared_ptr<Slot>> local;
      {
        std::shared_lock<std::shared_mutex> sl(shard->struct_mu);
        local = shard->slots;
      }
      for (const auto& slot : local) {
        const catalog::Row* row = slot->VisibleRow(snap);
        if (row != nullptr) acc.emplace_back(slot->seq, *row);
      }
      run_ends.push_back(acc.size());
    }
  }
  OrderSeqRuns(&acc, std::move(run_ends));
  std::vector<catalog::Row> out;
  out.reserve(acc.size());
  for (auto& p : acc) out.push_back(std::move(p.second));
  return out;
}

size_t Table::ShardOfKey(const catalog::Value& key) const {
  return catalog::ValueHash()(key) % shards_.size();
}

std::shared_ptr<Table::Slot> Table::InstallNewSlot(Shard* shard,
                                                   catalog::Row row, Ts begin,
                                                   const catalog::Value* key,
                                                   size_t seq) {
  auto slot = std::make_shared<Slot>(seq);
  slot->head.store(new Version(std::move(row), begin),
                   std::memory_order_release);
  {
    std::unique_lock<std::shared_mutex> sl(shard->struct_mu);
    shard->slots.push_back(slot);
    if (key != nullptr) shard->index.emplace(*key, slot);
  }
  if (txns_ != nullptr) txns_->NoteVersionInstalled();
  NoteVersionForIndexes(slot->head.load(std::memory_order_acquire)->row, slot);
  return slot;
}

Status Table::Insert(catalog::Row row) {
  if (row.size() != schema_.size()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " does not match schema " +
        schema_.ToString() + " of table " + name_);
  }
  // The installed version's wire size, read under the shard's write
  // mutex (which Vacuum also takes) for the byte counter below.
  size_t bytes = 0;
  // Shared topology hold: keeps a concurrent Repartition from freeing
  // the Shard this insert is about to lock out from under us.
  std::shared_lock<std::shared_mutex> topology(topology_mu_);
  // Setup-path stamp: committed as of the current clock, so every
  // snapshot pinned from now on sees the row.
  const Ts begin = txns_ == nullptr ? 1 : txns_->clock();
  if (unique_key_.has_value()) {
    const catalog::Value key = row[key_index_col_];
    Shard& shard = *shards_[ShardOfKey(key)];
    std::lock_guard<std::mutex> write(shard.write_mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end() &&
        it->second->VisibleVersion(Snapshot::Latest()) != nullptr) {
      return Status::InvalidArgument("duplicate key " + key.ToString() +
                                     " in table " + name_);
    }
    if (it != shard.index.end()) {
      // Key slot exists but holds no live row (deleted): stack the
      // reinserted row on the same slot.
      Slot& slot = *it->second;
      Version* nv = new Version(std::move(row), begin);
      nv->next.store(slot.head.load(std::memory_order_acquire),
                     std::memory_order_relaxed);
      slot.head.store(nv, std::memory_order_release);
      if (txns_ != nullptr) txns_->NoteVersionInstalled();
      NoteVersionForIndexes(nv->row, it->second);
      bytes = nv->wire_size;
    } else {
      size_t seq = next_seq_.fetch_add(1, std::memory_order_acq_rel);
      bytes = InstallNewSlot(&shard, std::move(row), begin, &key, seq)
                  ->head.load(std::memory_order_acquire)
                  ->wire_size;
    }
  } else {
    // Round-robin placement: the sequence number decides the shard, so
    // single-threaded bulk loads fill shards exactly as the unsharded
    // engine's scan order expects.
    size_t seq = next_seq_.fetch_add(1, std::memory_order_acq_rel);
    Shard& shard = *shards_[seq % shards_.size()];
    std::lock_guard<std::mutex> write(shard.write_mu);
    bytes = InstallNewSlot(&shard, std::move(row), begin, nullptr, seq)
                ->head.load(std::memory_order_acquire)
                ->wire_size;
  }
  size_.fetch_add(1, std::memory_order_acq_rel);
  bytes_.fetch_add(bytes, std::memory_order_acq_rel);
  return Status::OK();
}

Status Table::InsertTxn(Transaction* txn, catalog::Row row) {
  if (row.size() != schema_.size()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " does not match schema " +
        schema_.ToString() + " of table " + name_);
  }
  const Ts pending = TsPendingFor(txn->id());
  std::shared_lock<std::shared_mutex> topology(topology_mu_);
  if (unique_key_.has_value()) {
    const catalog::Value key = row[key_index_col_];
    Shard& shard = *shards_[ShardOfKey(key)];
    std::lock_guard<std::mutex> write(shard.write_mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      Slot& slot = *it->second;
      Version* newest = NewestMeaningful(slot);
      if (newest != nullptr) {
        Ts b = newest->begin.load(std::memory_order_acquire);
        Ts e = newest->end.load(std::memory_order_acquire);
        const bool own_begin =
            TsIsPending(b) && TsPendingTxn(b) == txn->id();
        if (TsIsPending(b) && !own_begin) {
          return WriteConflict("key " + key.ToString() +
                               " inserted by an uncommitted transaction");
        }
        if (!TsIsPending(b) && b > txn->snapshot().ts) {
          return WriteConflict("key " + key.ToString() +
                               " committed after snapshot");
        }
        if (e == kTsInfinity) {
          // The outcome observed the key's slot at this snapshot: a key
          // read, so a concurrent DELETE of the key fails validation.
          txn->RecordKeyRead(
              KeyRead{weak_from_this().lock(), this, key, key_epoch()});
          return Status::InvalidArgument("duplicate key " + key.ToString() +
                                         " in table " + name_);
        }
        if (TsIsPending(e)) {
          if (TsPendingTxn(e) != txn->id()) {
            return WriteConflict("key " + key.ToString() +
                                 " deleted by an uncommitted transaction");
          }
          // We deleted it ourselves: reinsert stacks a new version.
        } else if (e > txn->snapshot().ts) {
          return WriteConflict("key " + key.ToString() +
                               " deleted after snapshot");
        }
      }
      Version* nv = new Version(std::move(row), pending);
      nv->next.store(slot.head.load(std::memory_order_acquire),
                     std::memory_order_relaxed);
      slot.head.store(nv, std::memory_order_release);
      if (txns_ != nullptr) txns_->NoteVersionInstalled();
      NoteVersionForIndexes(nv->row, it->second);
      txn->RecordWrite(
          WriteRecord{weak_from_this().lock(), this, it->second, nv, nullptr});
    } else {
      size_t seq = next_seq_.fetch_add(1, std::memory_order_acq_rel);
      std::shared_ptr<Slot> slot =
          InstallNewSlot(&shard, std::move(row), pending, &key, seq);
      txn->RecordWrite(WriteRecord{weak_from_this().lock(), this, slot,
                                   slot->head.load(std::memory_order_acquire),
                                   nullptr});
    }
  } else {
    size_t seq = next_seq_.fetch_add(1, std::memory_order_acq_rel);
    Shard& shard = *shards_[seq % shards_.size()];
    std::lock_guard<std::mutex> write(shard.write_mu);
    std::shared_ptr<Slot> slot =
        InstallNewSlot(&shard, std::move(row), pending, nullptr, seq);
    txn->RecordWrite(WriteRecord{weak_from_this().lock(), this, slot,
                                 slot->head.load(std::memory_order_acquire),
                                 nullptr});
  }
  return Status::OK();
}

Result<bool> Table::MutateSlot(Transaction* txn,
                               const std::shared_ptr<Slot>& slot,
                               const RowPredicate& pred,
                               const RowMutation& mutate) {
  const Version* vis = slot->VisibleVersion(txn->snapshot());
  if (vis == nullptr) return false;
  EQSQL_ASSIGN_OR_RETURN(bool matched, pred(vis->row));
  if (!matched) return false;
  EQSQL_RETURN_IF_ERROR(CheckWritable(*slot, vis, *txn));
  const Ts pending = TsPendingFor(txn->id());
  Version* old_version = const_cast<Version*>(vis);
  if (mutate == nullptr) {
    old_version->end.store(pending, std::memory_order_release);
    txn->RecordWrite(WriteRecord{weak_from_this().lock(), this, slot, nullptr,
                                 old_version});
    return true;
  }
  EQSQL_ASSIGN_OR_RETURN(catalog::Row new_row, mutate(vis->row));
  if (new_row.size() != schema_.size()) {
    return Status::InvalidArgument("updated row arity " +
                                   std::to_string(new_row.size()) +
                                   " does not match schema of table " + name_);
  }
  Version* nv = new Version(std::move(new_row), pending);
  nv->next.store(slot->head.load(std::memory_order_acquire),
                 std::memory_order_relaxed);
  slot->head.store(nv, std::memory_order_release);
  old_version->end.store(pending, std::memory_order_release);
  if (txns_ != nullptr) txns_->NoteVersionInstalled();
  NoteVersionForIndexes(nv->row, slot);
  txn->RecordWrite(
      WriteRecord{weak_from_this().lock(), this, slot, nv, old_version});
  return true;
}

Result<size_t> Table::MutateRows(Transaction* txn, const RowPredicate& pred,
                                 const RowMutation& mutate) {
  // A statement that fails mid-way keeps its earlier writes pending.
  size_t written = 0;
  std::shared_lock<std::shared_mutex> topology(topology_mu_);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> write(shard->write_mu);
    // Slot vectors mutate only under write_mu (writers, GC), so
    // holding it makes the plain iteration safe.
    for (const auto& slot : shard->slots) {
      EQSQL_ASSIGN_OR_RETURN(bool wrote, MutateSlot(txn, slot, pred, mutate));
      if (wrote) ++written;
    }
  }
  return written;
}

Result<size_t> Table::MutateKey(Transaction* txn, const std::string& key_column,
                                const catalog::Value& key,
                                const RowPredicate& pred,
                                const RowMutation& mutate) {
  std::shared_lock<std::shared_mutex> topology(topology_mu_);
  if (unique_key_ != key_column) {
    return Status::NotFound("unique key of table " + name_ +
                            " is no longer " + key_column);
  }
  txn->RecordKeyRead(KeyRead{weak_from_this().lock(), this, key,
                             key_epoch_.load(std::memory_order_acquire)});
  Shard& shard = *shards_[ShardOfKey(key)];
  std::lock_guard<std::mutex> write(shard.write_mu);
  // The key index, like the slot vector, mutates only under write_mu.
  auto it = shard.index.find(key);
  if (it == shard.index.end()) return size_t{0};
  EQSQL_ASSIGN_OR_RETURN(bool wrote,
                         MutateSlot(txn, it->second, pred, mutate));
  return wrote ? size_t{1} : size_t{0};
}

bool Table::KeyWrittenSince(const catalog::Value& key, uint64_t key_epoch,
                            Ts ts) const {
  std::shared_lock<std::shared_mutex> topology(topology_mu_);
  if (key_epoch_.load(std::memory_order_acquire) != key_epoch) {
    return last_commit_ts() > ts;
  }
  const Shard& shard = *shards_[ShardOfKey(key)];
  std::shared_ptr<Slot> slot;
  {
    std::shared_lock<std::shared_mutex> sl(shard.struct_mu);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) return false;
    slot = it->second;
  }
  // Pending stamps (uncommitted or aborted) belong to transactions that
  // will serialize after this one, if at all.
  auto committed_after = [ts](Ts stamp) {
    return !TsIsPending(stamp) && stamp != kTsInfinity && stamp > ts;
  };
  for (const Version* v = slot->head.load(std::memory_order_acquire);
       v != nullptr; v = v->next.load(std::memory_order_acquire)) {
    if (committed_after(v->begin.load(std::memory_order_acquire)) ||
        committed_after(v->end.load(std::memory_order_acquire))) {
      return true;
    }
  }
  return false;
}

Status Table::Repartition(size_t new_count, const std::string* new_key) {
  // Exclusive topology hold: every other path that touches shards_ —
  // writers, readers pinning slots, GC — holds topology_mu_ shared for
  // the duration of its shard access, so once we own it exclusively no
  // thread can be inside a Shard, and the old Shard objects are safe
  // to free at function exit. Version chains move wholesale with their
  // slots: pending versions and in-flight transactions' slot
  // references stay valid.
  std::unique_lock<std::shared_mutex> topology(topology_mu_);

  std::optional<std::string> key = unique_key_;
  size_t key_col = key_index_col_;
  if (new_key != nullptr) {
    EQSQL_ASSIGN_OR_RETURN(key_col, schema_.ResolveColumn(*new_key));
    key = *new_key;
  }

  // Phase 1: validate. Compute every slot's target shard and run the
  // uniqueness check over live rows — no slot moves until the whole
  // placement is known to succeed, so a duplicate-key error leaves the
  // table exactly as it was. A slot counts against uniqueness when its
  // newest meaningful version is live (end infinity) or mid-write
  // (pending end — the owner may roll the delete back).
  std::vector<std::shared_ptr<Slot>> all;
  all.reserve(next_seq_.load(std::memory_order_acquire));
  for (const auto& s : shards_) {
    for (const auto& slot : s->slots) {
      if (slot->head.load(std::memory_order_acquire) != nullptr) {
        all.push_back(slot);
      }
    }
  }
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    return a->seq < b->seq;
  });

  size_t count = new_count == 0 ? shards_.size() : new_count;
  std::vector<size_t> targets(all.size());
  std::vector<std::unordered_map<catalog::Value, std::shared_ptr<Slot>,
                                 catalog::ValueHash>>
      indexes(count);
  for (size_t i = 0; i < all.size(); ++i) {
    size_t target;
    if (key.has_value()) {
      Version* newest = NewestMeaningful(*all[i]);
      const Version* any = newest != nullptr
                               ? newest
                               : all[i]->head.load(std::memory_order_acquire);
      const catalog::Value& kv = any->row[key_col];
      target = catalog::ValueHash()(kv) % count;
      bool live = false;
      if (newest != nullptr) {
        Ts end = newest->end.load(std::memory_order_acquire);
        live = end == kTsInfinity || TsIsPending(end);
      }
      if (live) {
        auto [it, inserted] = indexes[target].emplace(kv, all[i]);
        if (!inserted) {
          return Status::InvalidArgument(
              "existing data violates unique key on " + *key + " in table " +
              name_);
        }
      } else {
        // Dead slot: still indexed (reinsert stacks on it) unless a
        // live slot claims the key — which uniqueness forbids anyway,
        // since a key maps to exactly one slot for its whole life.
        indexes[target].emplace(kv, all[i]);
      }
    } else {
      target = all[i]->seq % count;
    }
    targets[i] = target;
  }

  // Phase 2: move slots into their new shards and commit.
  std::vector<std::vector<std::shared_ptr<Slot>>> placed(count);
  for (size_t i = 0; i < all.size(); ++i) {
    placed[targets[i]].push_back(std::move(all[i]));
  }

  if (count != shards_.size()) {
    std::vector<std::unique_ptr<Shard>> fresh(count);
    for (auto& s : fresh) s = std::make_unique<Shard>();
    shards_ = std::move(fresh);
  }
  for (size_t i = 0; i < count; ++i) {
    shards_[i]->slots = std::move(placed[i]);
    shards_[i]->index = std::move(indexes[i]);
  }
  unique_key_ = key;
  key_index_col_ = key_col;
  if (new_key != nullptr) key_epoch_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

Status Table::DeclareUniqueKey(const std::string& column) {
  return Repartition(0, &column);
}

Status Table::SetShardCount(size_t n) {
  if (n == 0) {
    return Status::InvalidArgument("shard count must be positive");
  }
  // No unlocked same-count early-out: shards_.size() may only be read
  // under the topology lock, which Repartition takes.
  return Repartition(n, nullptr);
}

std::optional<size_t> Table::LookupByKey(const catalog::Value& key) const {
  if (!unique_key_.has_value()) return std::nullopt;
  std::shared_lock<std::shared_mutex> topology(topology_mu_);
  const Shard& shard = *shards_[ShardOfKey(key)];
  std::shared_ptr<Slot> slot;
  {
    std::shared_lock<std::shared_mutex> sl(shard.struct_mu);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) return std::nullopt;
    slot = it->second;
  }
  if (slot->VisibleVersion(Snapshot::Latest()) == nullptr) return std::nullopt;
  return slot->seq;
}

const catalog::Row* Table::ProbeKey(const catalog::Value& key,
                                    const Snapshot& snap) const {
  std::shared_lock<std::shared_mutex> topology(topology_mu_);
  if (!unique_key_.has_value()) return nullptr;
  const Shard& shard = *shards_[ShardOfKey(key)];
  std::shared_lock<std::shared_mutex> sl(shard.struct_mu);
  auto it = shard.index.find(key);
  return it == shard.index.end() ? nullptr : it->second->VisibleRow(snap);
}

void Table::ProbeKeys(const catalog::Value* const* keys, size_t n,
                      const Snapshot& snap, const catalog::Row** rows) const {
  std::fill(rows, rows + n, nullptr);
  std::shared_lock<std::shared_mutex> topology(topology_mu_);
  if (!unique_key_.has_value()) return;
  // Writers never hold two structural locks, so taking every shard's
  // shared, in order, cannot deadlock.
  std::vector<std::shared_lock<std::shared_mutex>> held;
  held.reserve(shards_.size());
  for (const auto& shard : shards_) held.emplace_back(shard->struct_mu);
  for (size_t i = 0; i < n; ++i) {
    if (keys[i] == nullptr) continue;
    const Shard& shard = *shards_[ShardOfKey(*keys[i])];
    auto it = shard.index.find(*keys[i]);
    if (it != shard.index.end()) rows[i] = it->second->VisibleRow(snap);
  }
}

std::vector<std::shared_ptr<const Table::Slot>> Table::PinShard(
    size_t i) const {
  std::shared_lock<std::shared_mutex> topology(topology_mu_);
  const Shard& shard = *shards_[i];
  std::shared_lock<std::shared_mutex> sl(shard.struct_mu);
  return std::vector<std::shared_ptr<const Slot>>(shard.slots.begin(),
                                                  shard.slots.end());
}

size_t ShardScanCursor::Next(size_t max_rows, std::vector<size_t>* seqs,
                             std::vector<const catalog::Row*>* rows,
                             size_t* wire_bytes) {
  size_t produced = 0;
  while (produced < max_rows && pos_ < slots_.size()) {
    const TableSlot& slot = *slots_[pos_++];
    const Version* v = slot.VisibleVersion(snap_);
    if (v == nullptr) continue;  // tombstoned / not yet visible
    seqs->push_back(slot.seq);
    rows->push_back(&v->row);
    *wire_bytes += v->wire_size;
    ++produced;
  }
  return produced;
}

void Table::NoteCommit(Ts commit_ts, int64_t row_delta, int64_t byte_delta) {
  last_commit_ts_.store(commit_ts, std::memory_order_release);
  size_.fetch_add(static_cast<size_t>(row_delta), std::memory_order_acq_rel);
  bytes_.fetch_add(static_cast<size_t>(byte_delta), std::memory_order_acq_rel);
}

void Table::Vacuum(Ts watermark, TxnManager* txns) {
  std::vector<Version*> retired;
  {
    std::shared_lock<std::shared_mutex> topology(topology_mu_);
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> write(shard->write_mu);
      bool any_dead_slot = false;
      for (const auto& slot : shard->slots) {
        // Unlink versions no live or future snapshot can see: aborted
        // ones, and superseded/deleted ones whose committed end is at
        // or below the watermark. Pending stamps always survive.
        Version* prev = nullptr;
        Version* v = slot->head.load(std::memory_order_acquire);
        while (v != nullptr) {
          Version* next = v->next.load(std::memory_order_acquire);
          Ts b = v->begin.load(std::memory_order_acquire);
          Ts e = v->end.load(std::memory_order_acquire);
          bool dead = b == kTsAborted ||
                      (!TsIsPending(b) && !TsIsPending(e) &&
                       e != kTsInfinity && e <= watermark);
          if (dead) {
            // Keep v->next intact: a reader paused on v mid-walk can
            // still step off it; the retire list delays the free until
            // every such reader's pin is gone.
            if (prev == nullptr) {
              slot->head.store(next, std::memory_order_release);
            } else {
              prev->next.store(next, std::memory_order_release);
            }
            retired.push_back(v);
          } else {
            prev = v;
          }
          v = next;
        }
        if (slot->head.load(std::memory_order_acquire) == nullptr) {
          any_dead_slot = true;
        }
      }
      if (any_dead_slot) {
        // Fully dead slots leave the shard (readers holding pinned
        // shared_ptrs keep them alive and see empty chains).
        std::unique_lock<std::shared_mutex> sl(shard->struct_mu);
        for (auto it = shard->index.begin(); it != shard->index.end();) {
          if (it->second->head.load(std::memory_order_acquire) == nullptr) {
            it = shard->index.erase(it);
          } else {
            ++it;
          }
        }
        shard->slots.erase(
            std::remove_if(shard->slots.begin(), shard->slots.end(),
                           [](const std::shared_ptr<Slot>& s) {
                             return s->head.load(
                                        std::memory_order_acquire) == nullptr;
                           }),
            shard->slots.end());
      }
    }
  }
  if (!retired.empty() && txns != nullptr) txns->Retire(std::move(retired));
  // Secondary indexes hold their own slot references: drop entries
  // whose chain is fully gone so vacuumed slots actually free.
  if (index_count_.load(std::memory_order_acquire) != 0) {
    std::shared_lock<std::shared_mutex> il(index_mu_);
    for (const auto& idx : indexes_) idx->PruneDeadSlots();
  }
}

void Table::NoteVersionForIndexes(const catalog::Row& row,
                                  const std::shared_ptr<Slot>& slot) {
  if (index_count_.load(std::memory_order_acquire) == 0) return;
  std::shared_lock<std::shared_mutex> il(index_mu_);
  for (const auto& idx : indexes_) idx->AddEntry(row, slot);
}

Status Table::CreateIndex(const std::string& name,
                          const std::vector<std::string>& columns,
                          const IndexTaskRunner& runner) {
  if (columns.empty()) {
    return Status::InvalidArgument("index " + name + " on table " + name_ +
                                   " must cover at least one column");
  }
  std::vector<size_t> col_idx;
  std::vector<std::string> resolved;
  col_idx.reserve(columns.size());
  for (const std::string& col : columns) {
    EQSQL_ASSIGN_OR_RETURN(size_t idx, schema_.ResolveColumn(col));
    col_idx.push_back(idx);
    resolved.push_back(schema_.column(idx).name);
  }
  // Bucket count bounds writer contention, not capacity; it is
  // independent of the table's shard layout so Repartition never
  // invalidates the index.
  auto index = std::make_shared<SecondaryIndex>(name, std::move(resolved),
                                                std::move(col_idx), 16);
  {
    std::unique_lock<std::shared_mutex> il(index_mu_);
    for (const auto& existing : indexes_) {
      if (existing->name() == name) {
        return Status::InvalidArgument("index " + name +
                                       " already exists on table " + name_);
      }
    }
    // Registered before the backfill: from here on every writer notes
    // new versions into the index, and AddEntry's per-(key, slot)
    // idempotence makes the backfill/writer overlap safe.
    indexes_.push_back(index);
    index_count_.store(indexes_.size(), std::memory_order_release);
  }
  size_t shard_total;
  {
    std::shared_lock<std::shared_mutex> topology(topology_mu_);
    shard_total = shards_.size();
  }
  // The backfill walks version chains with no shard lock held: a
  // snapshot pin keeps a concurrent Vacuum -- which commits start --
  // from freeing a version it is reading.
  const Ts pin = txns_ != nullptr ? txns_->PinSnapshot() : 0;
  std::vector<std::function<void()>> tasks;
  tasks.reserve(shard_total);
  for (size_t s = 0; s < shard_total; ++s) {
    tasks.push_back([this, s, index] {
      // PinShard copies the slot pointers under the structural lock;
      // the chain walk itself is the same lock-free traversal readers
      // do. Every non-aborted version is indexed — committed-deleted
      // versions may still be visible to an old snapshot, and pending
      // ones may commit.
      for (const auto& slot : PinShard(s)) {
        for (const Version* v = slot->head.load(std::memory_order_acquire);
             v != nullptr; v = v->next.load(std::memory_order_acquire)) {
          if (v->begin.load(std::memory_order_acquire) == kTsAborted) continue;
          index->AddEntry(v->row, slot);
        }
      }
    });
  }
  if (runner != nullptr) {
    runner(std::move(tasks));
  } else {
    for (auto& task : tasks) task();
  }
  if (txns_ != nullptr) txns_->Unpin(pin);
  index->MarkReady();
  ready_index_count_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

std::shared_ptr<const SecondaryIndex> Table::FindIndex(
    const std::vector<std::string>& columns) const {
  if (index_count_.load(std::memory_order_acquire) == 0) return nullptr;
  std::shared_lock<std::shared_mutex> il(index_mu_);
  for (const auto& idx : indexes_) {
    if (idx->ready() && idx->columns() == columns) return idx;
  }
  return nullptr;
}

std::shared_ptr<const SecondaryIndex> Table::FindIndexForColumnSet(
    const std::vector<std::string>& columns) const {
  if (index_count_.load(std::memory_order_acquire) == 0) return nullptr;
  std::shared_lock<std::shared_mutex> il(index_mu_);
  for (const auto& idx : indexes_) {
    if (!idx->ready() || idx->columns().size() != columns.size()) continue;
    bool all = true;
    for (const std::string& col : idx->columns()) {
      if (std::find(columns.begin(), columns.end(), col) == columns.end()) {
        all = false;
        break;
      }
    }
    if (all) return idx;
  }
  return nullptr;
}

std::vector<std::vector<std::string>> Table::IndexedColumnLists() const {
  std::vector<std::vector<std::string>> out;
  if (index_count_.load(std::memory_order_acquire) == 0) return out;
  std::shared_lock<std::shared_mutex> il(index_mu_);
  for (const auto& idx : indexes_) {
    if (idx->ready()) out.push_back(idx->columns());
  }
  return out;
}

}  // namespace eqsql::storage
