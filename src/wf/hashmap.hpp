// Lock-free open-addressed hash map with operation helping (wfc::wf).
//
// Layout: a fixed power-of-two array of atomic slots, each holding null
// (never occupied), a tombstone sentinel (erased; probes continue past
// it, inserts may reuse it), or a heap-allocated Node{key, value}.
// Linear probing from hash(key); a probe may stop at the first null
// because erasure writes tombstones, never nulls, so the "null terminates
// the cluster" invariant only ever gets more conservative.
//
// Concurrency model:
//   * find() is wait-free: a bounded scan of acquire loads, no writes.
//   * insert claims a free slot by CAS.  Two threads inserting the same
//     key can transiently both install; the "smallest probe index wins"
//     rule resolves it -- after installing, a writer rescans the prefix of
//     its probe window, and if an earlier same-key node exists it unlinks
//     its own copy and adopts the earlier one.  Only the later copy ever
//     self-unlinks, so exactly one survives and find() (which returns the
//     first match in probe order) always agrees with the winner.
//   * After `announce_after` failed CASes an insert publishes itself in a
//     fixed announce array and every subsequent writer (which polls one
//     announce cell per operation, and any writer that collides on a
//     cell) helps complete it.  This is the BG-simulation idea from the
//     source paper applied to a data structure: a slow or preempted
//     process's pending operation is finished by whoever is making
//     progress, so one stalled writer cannot wedge the structure.  With
//     helping, an insert completes within a bounded number of *system*
//     steps -- the structure is non-blocking for writers and readers
//     never wait at all.
//   * Unlinked nodes are retired through wf::Epoch (callers hold a Guard
//     across every call), so readers can keep dereferencing a node that
//     lost a race until their guard closes.
//
// The table does not resize: capacity is fixed at construction and
// callers size it for their bound (ClockCache keeps occupancy low by
// evicting).  Value types must be copy-constructible -- helpers install
// *copies* of the announced prototype -- but the copy may be shallow
// (ClockCache's Entry copies the payload and resets its bookkeeping).
//
// The `unlink` hook is how a layer above vetoes reclamation: when a
// losing duplicate must be removed, the map calls unlink(slot, node)
// instead of freeing directly, and the hook may decline (e.g. the node is
// pinned); a declined duplicate is unreachable through find() and is
// collected by that layer later.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "wf/epoch.hpp"
#include "wf/telemetry.hpp"

namespace wfc::wf {

template <typename K, typename V, typename Hash = std::hash<K>,
          typename Eq = std::equal_to<K>>
class HashMap {
 public:
  struct Node {
    K key;
    V value;
  };

  struct Options {
    /// Slot count is the smallest power of two >= max(64, min_slots).
    std::size_t min_slots = 64;
    /// Failed slot-claim CAS attempts before an insert publishes itself
    /// in the announce array.  0 = announce immediately (tests use this
    /// to force the helping path).
    unsigned announce_after = 8;
    /// Invoked to remove a losing duplicate: unlink(slot_index, node).
    /// May decline and leave the node in place.  Default: tombstone the
    /// slot and epoch-retire the node.
    std::function<void(std::size_t, Node*)> unlink;
  };

  explicit HashMap(Options options = {}) : options_(std::move(options)) {
    std::size_t want = options_.min_slots < 64 ? 64 : options_.min_slots;
    std::size_t cap = 64;
    while (cap < want) cap <<= 1;
    mask_ = cap - 1;
    slots_ = std::make_unique<std::atomic<Node*>[]>(cap);
    for (std::size_t i = 0; i < cap; ++i) {
      slots_[i].store(nullptr, std::memory_order_relaxed);
    }
    if (!options_.unlink) {
      options_.unlink = [this](std::size_t i, Node* n) {
        if (erase_at(i, n)) Epoch::global().retire(n);
      };
    }
  }

  ~HashMap() {
    // Callers must be quiescent; live nodes are freed directly.
    for (std::size_t i = 0; i <= mask_; ++i) {
      Node* n = slots_[i].load(std::memory_order_relaxed);
      if (n != nullptr && n != tomb()) delete n;
    }
  }

  HashMap(const HashMap&) = delete;
  HashMap& operator=(const HashMap&) = delete;

  /// First node matching `key` in probe order, or null.  Wait-free.
  /// Caller must hold an Epoch guard.
  [[nodiscard]] Node* find(const K& key) const {
    const std::size_t home = Hash{}(key) & mask_;
    for (std::size_t step = 0; step <= mask_; ++step) {
      Node* n = slots_[(home + step) & mask_].load(std::memory_order_acquire);
      if (n == nullptr) return nullptr;
      if (n == tomb()) continue;
      if (Eq{}(n->key, key)) return n;
    }
    return nullptr;
  }

  /// Returns the node for `key`, inserting `make()` (a Node*) if absent.
  /// Sets *inserted iff this call's operation created the surviving node
  /// (possibly installed on its behalf by a helper).  Returns null only
  /// if the table is full of live keys.  Caller must hold an Epoch guard.
  template <typename MakeNode>
  Node* insert_or_get(const K& key, MakeNode&& make, bool* inserted) {
    *inserted = false;
    help_someone();
    if (Node* n = find(key)) return n;

    const std::size_t home = Hash{}(key) & mask_;
    Node* cand = make();
    if (options_.announce_after != 0) {
      unsigned budget = options_.announce_after;
      ProbeResult pr = probe_install(home, key, cand, &budget);
      switch (pr.outcome) {
        case ProbeOutcome::kFound:
          delete cand;
          return pr.node;
        case ProbeOutcome::kInstalled: {
          Node* winner = resolve_dup(home, pr.idx, cand);
          *inserted = (winner == cand);
          return winner;
        }
        case ProbeOutcome::kFull:
          delete cand;
          return nullptr;
        case ProbeOutcome::kBudget:
          break;  // fall through to the announce path
      }
    }
    return announce_insert(home, cand, inserted);
  }

  /// Tombstones slot `i` iff it still holds `expected`.  Does NOT retire
  /// the node -- the caller owns that (it usually holds an evict claim).
  bool erase_at(std::size_t i, Node* expected) {
    if (slots_[i].compare_exchange_strong(expected, tomb(),
                                          std::memory_order_acq_rel)) {
      size_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// Removes `key` if present (no claim protocol -- for plain-map use;
  /// ClockCache evicts through erase_at instead).
  bool erase(const K& key) {
    while (true) {
      const std::size_t home = Hash{}(key) & mask_;
      bool retry = false;
      for (std::size_t step = 0; step <= mask_ && !retry; ++step) {
        const std::size_t i = (home + step) & mask_;
        Node* n = slots_[i].load(std::memory_order_acquire);
        if (n == nullptr) return false;
        if (n == tomb()) continue;
        if (!Eq{}(n->key, key)) continue;
        if (erase_at(i, n)) {
          Epoch::global().retire(n);
          return true;
        }
        telemetry().cas_retries.inc();
        retry = true;  // slot changed under us; rescan
      }
      if (!retry) return false;
    }
  }

  /// Live node at slot `i`, or null (empty / tombstone).  For scanners
  /// (eviction laps) holding an Epoch guard.
  [[nodiscard]] Node* peek(std::size_t i) const {
    Node* n = slots_[i].load(std::memory_order_acquire);
    return n == tomb() ? nullptr : n;
  }

  [[nodiscard]] std::size_t slots() const { return mask_ + 1; }

  /// Live-node count.  Slot-based: transient duplicates are counted until
  /// their unlink; exact whenever writers are quiescent.
  [[nodiscard]] std::size_t size() const {
    return size_.load(std::memory_order_relaxed);
  }

 private:
  enum class ProbeOutcome { kFound, kInstalled, kFull, kBudget };
  struct ProbeResult {
    Node* node;
    std::size_t idx;
    ProbeOutcome outcome;
  };

  // A pending insert published for helping.  `result` is a tagged Node*
  // (bit 0 set = the key already existed) so outcome and provenance
  // commit in one CAS; tomb() as result encodes "table full".
  //
  // `copies` lists every node a helper allocated for this op, pushed
  // BEFORE the node's slot CAS, so a helper whose probe finds a node can
  // tell the op's own copy (an insert) from a pre-existing key.  Only a
  // helper whose result CAS then wins acts on that answer, and it can win
  // only while the announcer still waits with its guard pinned, so no
  // listed copy has been freed and its address reused by then.
  struct Copy {
    const Node* node;
    Copy* next;
  };
  struct AnnounceOp {
    std::size_t home;
    const Node* proto;  // owned by the announcer; helpers install copies
    std::atomic<std::uintptr_t> result{0};
    std::atomic<Copy*> copies{nullptr};

    ~AnnounceOp() {
      for (Copy* c = copies.load(std::memory_order_relaxed); c != nullptr;) {
        Copy* next = c->next;
        delete c;
        c = next;
      }
    }

    void push_copy(const Node* n) {
      auto* c = new Copy{n, copies.load(std::memory_order_relaxed)};
      while (!copies.compare_exchange_weak(c->next, c,
                                           std::memory_order_release,
                                           std::memory_order_relaxed)) {
      }
    }

    [[nodiscard]] bool is_copy(const Node* n) const {
      for (const Copy* c = copies.load(std::memory_order_acquire);
           c != nullptr; c = c->next) {
        if (c->node == n) return true;
      }
      return false;
    }
  };
  static constexpr std::size_t kAnnounceSlots = 64;
  static constexpr std::uintptr_t kFoundTag = 1;

  // Sentinel distinct from every real allocation; compared by identity,
  // never dereferenced.
  Node* tomb() const {
    return const_cast<Node*>(reinterpret_cast<const Node*>(&tomb_storage_));
  }

  // Claims the first reusable slot for `cand`, or finds `key`.  Each CAS
  // failure re-examines the same slot (it may now hold our key).  With a
  // budget, gives up after that many failed CASes so the caller can
  // announce instead.
  ProbeResult probe_install(std::size_t home, const K& key, Node* cand,
                            unsigned* budget) {
    for (std::size_t step = 0; step <= mask_; ++step) {
      const std::size_t i = (home + step) & mask_;
      std::atomic<Node*>& slot = slots_[i];
      Node* n = slot.load(std::memory_order_acquire);
      while (true) {
        if (n != nullptr && n != tomb()) {
          if (Eq{}(n->key, key)) return {n, i, ProbeOutcome::kFound};
          break;  // occupied by another key; next slot
        }
        if (slot.compare_exchange_strong(n, cand, std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
          size_.fetch_add(1, std::memory_order_relaxed);
          return {cand, i, ProbeOutcome::kInstalled};
        }
        // CAS updated n; loop to re-examine this slot.
        telemetry().cas_retries.inc();
        if (budget != nullptr && --*budget == 0) {
          return {nullptr, 0, ProbeOutcome::kBudget};
        }
      }
    }
    return {nullptr, 0, ProbeOutcome::kFull};
  }

  // After installing `cand` at `idx`, adopt any same-key node earlier in
  // the probe window ("smallest probe index wins"): unlink our copy and
  // return the winner.  Only later copies self-unlink, so this cannot
  // erase the surviving node.
  Node* resolve_dup(std::size_t home, std::size_t idx, Node* cand) {
    for (std::size_t step = 0; step <= mask_; ++step) {
      const std::size_t i = (home + step) & mask_;
      if (i == idx) break;
      Node* n = slots_[i].load(std::memory_order_acquire);
      if (n == nullptr || n == tomb()) continue;
      if (Eq{}(n->key, cand->key)) {
        options_.unlink(idx, cand);
        return n;
      }
    }
    return cand;
  }

  // Runs `op` to completion (idempotent; any thread may call).  Returns
  // the winning node (null = table full) and sets *found_existing from
  // the committed tag.
  Node* help(AnnounceOp* op, bool helping_other,
             bool* found_existing = nullptr) {
    while (true) {
      std::uintptr_t r = op->result.load(std::memory_order_acquire);
      if (r != 0) return decode(r, found_existing);

      Node* fresh = new Node(*op->proto);
      op->push_copy(fresh);
      ProbeResult pr = probe_install(op->home, fresh->key, fresh, nullptr);
      Node* outcome = nullptr;
      bool found = false;
      bool installed = false;
      switch (pr.outcome) {
        case ProbeOutcome::kFound:
          // Never installed, but listed: retire rather than free, so its
          // address cannot come back as another insert's node and pass
          // is_copy while this op is pending.
          Epoch::global().retire(fresh);
          outcome = pr.node;
          // Another helper's copy of this op is this op's insert.
          found = !op->is_copy(outcome);
          break;
        case ProbeOutcome::kInstalled: {
          Node* winner = resolve_dup(op->home, pr.idx, fresh);
          outcome = winner;  // if not ours, ours is already unlinked
          installed = winner == fresh;
          found = !op->is_copy(winner);
          break;
        }
        case ProbeOutcome::kFull:
          Epoch::global().retire(fresh);
          outcome = tomb();
          break;
        case ProbeOutcome::kBudget:
          continue;  // unreachable (no budget), but keeps -Werror happy
      }

      std::uintptr_t tagged =
          reinterpret_cast<std::uintptr_t>(outcome) | (found ? kFoundTag : 0);
      std::uintptr_t expect = 0;
      if (op->result.compare_exchange_strong(expect, tagged,
                                             std::memory_order_acq_rel)) {
        if (helping_other) telemetry().help_ops.inc();
        if (found_existing != nullptr) *found_existing = found;
        return outcome == tomb() ? nullptr : outcome;
      }
      // Someone else committed first.  Retract our copy unless it IS the
      // committed node (another helper found it and committed it).
      Node* committed = decode(expect, found_existing);
      if (installed && committed != outcome) options_.unlink(pr.idx, outcome);
      return committed;
    }
  }

  Node* decode(std::uintptr_t r, bool* found_existing) const {
    if (found_existing != nullptr) *found_existing = (r & kFoundTag) != 0;
    Node* n = reinterpret_cast<Node*>(r & ~kFoundTag);
    return n == tomb() ? nullptr : n;
  }

  Node* announce_insert(std::size_t home, Node* proto, bool* inserted) {
    telemetry().announces.inc();
    auto* op = new AnnounceOp{home, proto, {}};
    std::size_t a = thread_slot() % kAnnounceSlots;
    while (true) {
      AnnounceOp* expect = nullptr;
      if (announce_[a].compare_exchange_strong(expect, op,
                                               std::memory_order_acq_rel)) {
        break;
      }
      if (expect != nullptr) help(expect, /*helping_other=*/true);
      a = (a + 1) % kAnnounceSlots;
    }
    bool found = false;
    Node* winner = help(op, /*helping_other=*/false, &found);
    announce_[a].store(nullptr, std::memory_order_release);
    // Laggard helpers may still hold op / read proto: epoch-retire both.
    Epoch::global().retire(op);
    Epoch::global().retire(proto);
    *inserted = (winner != nullptr && !found);
    return winner;
  }

  // One announce-array poll per write operation: the global progress
  // guarantee.  Rotates so every cell is eventually checked.
  void help_someone() {
    thread_local std::size_t rotor = thread_slot();
    AnnounceOp* op =
        announce_[rotor++ % kAnnounceSlots].load(std::memory_order_acquire);
    if (op != nullptr) help(op, /*helping_other=*/true);
  }

  std::size_t mask_;
  std::unique_ptr<std::atomic<Node*>[]> slots_;
  std::atomic<std::size_t> size_{0};
  std::atomic<AnnounceOp*> announce_[kAnnounceSlots] = {};
  Options options_;
  struct alignas(alignof(Node)) TombStorage {
    char pad[sizeof(Node)];
  };
  static inline const TombStorage tomb_storage_{};
};

}  // namespace wfc::wf
