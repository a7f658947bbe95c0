#ifndef LSENS_SERVER_SENSITIVITY_SERVER_H_
#define LSENS_SERVER_SENSITIVITY_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "exec/exec_context.h"
#include "sensitivity/incremental.h"
#include "sensitivity/tsens.h"
#include "storage/database.h"

namespace lsens {

class SensitivityServer;
class ServerSession;

namespace internal {
struct Epoch;
}  // namespace internal

// Serving knobs. The same TSensComputeOptions drive every compute the
// server runs (writer warm passes and reader cold computes alike), so the
// cache fingerprint — and therefore the warm-map key — is identical on both
// sides; only the execution knobs (threads, ctx) differ, and those are
// excluded from the fingerprint by construction.
struct ServingConfig {
  SensitivityCacheConfig cache;

  // Compute options shared by all sessions; the server sets join.ctx and
  // capture per call. join.threads parallelizes only the engine's full
  // computes in the writer's warm pass (delta repair is serial); reader
  // cold computes always run serially.
  TSensComputeOptions options;

  // Admission cap: queued DatabaseDelta batches coalesced into one writer
  // turn (one repair pass, one published epoch).
  size_t max_turn_deltas = 64;

  // true: deterministic stepped mode — no writer thread is spawned and the
  // owner drives TurnEpoch() explicitly, so a scripted interleaving of
  // submits, turns, and session queries replays bit-identically. false:
  // the constructor spawns the free-running writer loop.
  bool manual_turns = false;
};

// Aggregate server counters (a consistent snapshot is returned by copy).
struct ServingStats {
  uint64_t epochs_published = 0;  // includes the constructor's epoch 1
  uint64_t turns = 0;             // writer turns that published an epoch
  uint64_t empty_turns = 0;       // turns that applied nothing: no publish
  uint64_t deltas_applied = 0;    // DatabaseDelta batches applied
  uint64_t deltas_rejected = 0;   // poisoned batches refused atomically
  uint64_t max_turn_deltas = 0;   // largest coalesced batch so far
  uint64_t queries_served = 0;
  uint64_t warm_hits = 0;      // answered from the epoch's warm result map
  uint64_t cold_hits = 0;      // answered from the epoch's cold memo
  uint64_t cold_computes = 0;  // computed by the reader from the snapshot
  uint64_t sessions_opened = 0;
  uint64_t epochs_reclaimed = 0;  // retired snapshots actually freed
  uint64_t epochs_live = 0;       // gauge: current + still-pinned retired
  uint64_t epoch_bytes = 0;       // gauge: bytes held by live snapshots,
                                  // each shared buffer counted once
};

// A pinned, immutable epoch view. While a pin is alive the snapshot it
// references cannot be reclaimed, however many writer turns pass; the last
// pin on a retired epoch frees it on release. Move-only; released on
// destruction. Pins must not outlive the server.
class EpochPin {
 public:
  EpochPin() = default;
  EpochPin(EpochPin&& other) noexcept;
  EpochPin& operator=(EpochPin&& other) noexcept;
  EpochPin(const EpochPin&) = delete;
  EpochPin& operator=(const EpochPin&) = delete;
  ~EpochPin();

  bool valid() const { return epoch_ != nullptr; }
  uint64_t epoch() const;
  // The immutable snapshot — safe for arbitrary concurrent const reads
  // (oracle recomputes read it directly).
  const Database& db() const;
  const std::vector<std::pair<std::string, uint64_t>>& versions() const;

  // Early unpin; the pin becomes invalid.
  void Release();

 private:
  friend class SensitivityServer;
  EpochPin(SensitivityServer* server, std::shared_ptr<internal::Epoch> epoch);

  SensitivityServer* server_ = nullptr;
  std::shared_ptr<internal::Epoch> epoch_;
};

// One client's handle onto the server. A session is single-threaded state
// (it owns the per-session ExecContext): one thread at a time, though
// different sessions run fully concurrently. Render ctx() with
// RenderExecStats to see the per-session profile — "serve.*" pseudo-ops
// next to the join kernels of this session's cold computes.
class ServerSession {
 public:
  ServerSession(const ServerSession&) = delete;
  ServerSession& operator=(const ServerSession&) = delete;

  const std::string& name() const { return name_; }

  // Pins the current epoch so several queries see one consistent view.
  EpochPin Pin();

  // One-shot query: pins the current epoch, answers against it, releases.
  StatusOr<SensitivityResult> Query(const ConjunctiveQuery& q);

  // Answers against an explicitly pinned epoch (the snapshot-consistent
  // path: results are bit-identical to a from-scratch compute on pin.db()).
  StatusOr<SensitivityResult> QueryAt(const EpochPin& pin,
                                      const ConjunctiveQuery& q);

  ExecContext& ctx() { return ctx_; }

 private:
  friend class SensitivityServer;
  ServerSession(SensitivityServer* server, std::string name);

  SensitivityServer* server_;
  std::string name_;
  ExecContext ctx_;
};

// A long-lived, in-process concurrent sensitivity server over one Database
// and one shared SensitivityCache, following the PrivSQL serving model:
//
//   - N reader sessions answer queries against immutable epoch snapshots.
//     A reader pins the epoch it starts on (refcount); every answer is
//     bit-identical to a from-scratch compute against that snapshot.
//   - One writer (the spawned loop, or the owner via TurnEpoch in manual
//     mode) coalesces queued DatabaseDelta batches into one turn: applies
//     them to the master database (each batch all-or-nothing — a poisoned
//     batch is rejected and the published epoch is untouched), runs ONE
//     shared-cache repair pass to warm every registered query's result,
//     then publishes the next epoch atomically (RCU-style pointer swap).
//   - Retired epochs are reclaimed when their last pin drops; a publish
//     with no pinned readers reclaims the previous epoch immediately.
//
// Publishing is cheap: a snapshot shares the master's column chunks and
// dictionary (Database::CloneSnapshot), and the master copies a chunk only
// on its first write after a publish, so a turn pays for the chunks its
// deltas touch (plus one chunk table per touched column), not for the
// database.
//
// Reads never block on the writer and never see a half-applied delta: a
// pinned snapshot is immutable by construction. Queries on an epoch are
// answered from the epoch's warm map (written by the writer's repair pass,
// read-only afterwards), else from its cold memo, else computed from the
// snapshot on the reader's thread and memoized for later readers.
//
// Lifetime: sessions and pins must be released before the server is
// destroyed (the destructor checks). After Shutdown() the queue is drained
// and further queries are programming errors (LSENS_CHECK); SubmitDelta
// returns a Status instead, so producers can race shutdown gracefully.
class SensitivityServer {
 public:
  // Takes ownership of the database and publishes epoch 1 from it. In
  // free-running mode the writer thread starts here.
  explicit SensitivityServer(Database db, ServingConfig config = {});
  ~SensitivityServer();
  SensitivityServer(const SensitivityServer&) = delete;
  SensitivityServer& operator=(const SensitivityServer&) = delete;

  // Registers a query for per-turn warming: from the next turn on, the
  // writer's repair pass keeps its result hot in every published epoch
  // (one SyncStore pass repairs the shared nodes of all registered queries
  // exactly once per turn). Unregistered queries are still answerable —
  // they just compute cold on first touch per epoch. Callable any time.
  void RegisterQuery(const ConjunctiveQuery& q);

  // Queues one atomic batch for the writer's next turn. Unsupported after
  // Shutdown() (the queue no longer drains).
  Status SubmitDelta(DatabaseDelta delta);

  // Interns `s` in the master database's value dictionary and returns its
  // code — the door through which delta producers mint codes for string
  // values before submitting them. Safe from any thread: interning is
  // append-only (codes are stable), and the same lock spans the snapshot
  // clone inside a turn, so an epoch never shares a half-built dictionary.
  // The first intern after a publish copies the dictionary the epoch
  // shares; later ones append in place.
  // Epochs published before this call simply do not contain the new code:
  // their ContainsValue range check answers false (no mis-decode), and the
  // next published epoch renders it.
  Value InternValue(std::string_view s);

  // Manual mode only: coalesces the queued batches (up to the admission
  // cap) and publishes the next epoch. Returns true when an epoch was
  // published; false when nothing applied (current epoch untouched).
  bool TurnEpoch();

  std::unique_ptr<ServerSession> OpenSession(std::string name);

  // Stops the writer after draining the queue, then rejects further work.
  // Idempotent; safe to call from any one thread at a time.
  void Shutdown();

  uint64_t current_epoch() const;
  ServingStats stats() const;

  // The writer's execution profile (repair passes record "cache.*" ops
  // here). Read only while no writer turn can run (manual mode between
  // turns, or after Shutdown).
  const ExecContext& writer_ctx() const { return writer_ctx_; }

 private:
  friend class EpochPin;
  friend class ServerSession;

  struct RegisteredQuery {
    std::string key;  // cache fingerprint under config_.options
    ConjunctiveQuery query;
  };

  void WriterLoop();
  // One writer turn; returns true when an epoch was published.
  bool DoTurn();
  EpochPin PinCurrent();
  void Unpin(internal::Epoch* epoch);
  // Drops retired epochs with zero pins and refreshes the gauges.
  void ReclaimLocked();
  StatusOr<SensitivityResult> ServeQuery(const EpochPin& pin,
                                         const ConjunctiveQuery& q,
                                         ExecContext& ctx);
  void CheckServing() const;

  ServingConfig config_;

  // Writer-owned state: the master database, the shared cache repaired
  // against it, and the writer's stats context. Only the writer thread (or
  // the owner, in manual mode / the constructor) touches these — except
  // the master's dictionary, which InternValue may append to (or, when an
  // epoch still shares it, copy and replace) from any thread under
  // dict_mu_; the snapshot clone in a turn holds the same lock so no epoch
  // shares a dictionary mid-append.
  Database master_;
  SensitivityCache cache_;
  ExecContext writer_ctx_;
  std::mutex dict_mu_;

  // Admission queue; guards the registered-query list too.
  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<DatabaseDelta> queue_;
  std::vector<RegisteredQuery> registered_;
  bool stop_ = false;  // set once by Shutdown; writer drains then exits

  // Epoch list, current pointer, pin counts, and stats.
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<internal::Epoch>> live_;
  std::shared_ptr<internal::Epoch> current_;
  uint64_t epoch_counter_ = 0;
  ServingStats stats_;

  std::mutex shutdown_mu_;            // serializes Shutdown calls
  std::atomic<bool> shutdown_{false};  // queries after this are fatal
  std::thread writer_;
};

}  // namespace lsens

#endif  // LSENS_SERVER_SENSITIVITY_SERVER_H_
