#include "server/sensitivity_server.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"
#include "common/timer.h"

namespace lsens {

namespace internal {

// One published epoch: an immutable snapshot plus its result maps. `warm`
// is written by the writer before the epoch is published and read-only
// afterwards (publication happens under the server's mu_, which readers
// acquire to pin, so the handoff is ordered). `cold` memoizes reader-side
// computes and is the only mutable field; `pins` is guarded by the
// server's mu_.
struct Epoch {
  uint64_t id = 0;
  Database db;
  std::vector<std::pair<std::string, uint64_t>> versions;
  // db's buffers, for epoch_bytes (fixed at publish: the snapshot never
  // mutates, and its buffers are copied before the master writes them).
  // Shared so stats() can sum them outside the server's mu_ without
  // holding the epoch itself.
  std::shared_ptr<const std::vector<MemoryPart>> memory;
  // lsens-lint: allow(unordered-iter) lookup-only result maps keyed by the
  // canonical query fingerprint; serving probes with find(), never walks —
  // per-query answers cannot depend on map order.
  std::unordered_map<std::string, SensitivityResult> warm;
  std::mutex cold_mu;
  std::unordered_map<std::string, SensitivityResult> cold;
  uint64_t pins = 0;
};

std::shared_ptr<const std::vector<MemoryPart>> MemoryPartsOf(
    const Database& db) {
  auto parts = std::make_shared<std::vector<MemoryPart>>();
  db.AppendMemoryParts(parts.get());
  return parts;
}

}  // namespace internal

// --- EpochPin ---------------------------------------------------------------

EpochPin::EpochPin(SensitivityServer* server,
                   std::shared_ptr<internal::Epoch> epoch)
    : server_(server), epoch_(std::move(epoch)) {}

EpochPin::EpochPin(EpochPin&& other) noexcept
    : server_(other.server_), epoch_(std::move(other.epoch_)) {
  other.server_ = nullptr;
  other.epoch_ = nullptr;
}

EpochPin& EpochPin::operator=(EpochPin&& other) noexcept {
  if (this != &other) {
    Release();
    server_ = other.server_;
    epoch_ = std::move(other.epoch_);
    other.server_ = nullptr;
    other.epoch_ = nullptr;
  }
  return *this;
}

EpochPin::~EpochPin() { Release(); }

void EpochPin::Release() {
  if (epoch_ != nullptr) {
    server_->Unpin(epoch_.get());
    epoch_.reset();
    server_ = nullptr;
  }
}

uint64_t EpochPin::epoch() const {
  LSENS_CHECK(valid());
  return epoch_->id;
}

const Database& EpochPin::db() const {
  LSENS_CHECK(valid());
  return epoch_->db;
}

const std::vector<std::pair<std::string, uint64_t>>& EpochPin::versions()
    const {
  LSENS_CHECK(valid());
  return epoch_->versions;
}

// --- ServerSession ----------------------------------------------------------

ServerSession::ServerSession(SensitivityServer* server, std::string name)
    : server_(server), name_(std::move(name)) {}

EpochPin ServerSession::Pin() {
  ctx_.Record("serve.pin", 0, 0, 0, 0.0);
  return server_->PinCurrent();
}

StatusOr<SensitivityResult> ServerSession::Query(const ConjunctiveQuery& q) {
  EpochPin pin = server_->PinCurrent();
  return server_->ServeQuery(pin, q, ctx_);
}

StatusOr<SensitivityResult> ServerSession::QueryAt(const EpochPin& pin,
                                                   const ConjunctiveQuery& q) {
  return server_->ServeQuery(pin, q, ctx_);
}

// --- SensitivityServer ------------------------------------------------------

SensitivityServer::SensitivityServer(Database db, ServingConfig config)
    : config_(std::move(config)),
      master_(std::move(db)),
      cache_(config_.cache) {
  auto first = std::make_shared<internal::Epoch>();
  first->id = ++epoch_counter_;
  {
    std::lock_guard<std::mutex> lock(dict_mu_);
    first->db = master_.CloneSnapshot();
  }
  first->versions = first->db.VersionVector();
  first->memory = internal::MemoryPartsOf(first->db);
  {
    std::lock_guard<std::mutex> lock(mu_);
    live_.push_back(first);
    current_ = std::move(first);
    ++stats_.epochs_published;
    ReclaimLocked();
  }
  if (!config_.manual_turns) {
    writer_ = std::thread([this] { WriterLoop(); });
  }
}

SensitivityServer::~SensitivityServer() {
  Shutdown();
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& epoch : live_) {
    LSENS_CHECK_MSG(epoch->pins == 0,
                    "EpochPin outlives its SensitivityServer");
  }
}

void SensitivityServer::CheckServing() const {
  LSENS_CHECK_MSG(!shutdown_.load(std::memory_order_acquire),
                  "query on a shut-down SensitivityServer");
}

void SensitivityServer::RegisterQuery(const ConjunctiveQuery& q) {
  RegisteredQuery reg;
  reg.key = SensitivityCache::Fingerprint(q, config_.options);
  reg.query = q;
  std::lock_guard<std::mutex> lock(queue_mu_);
  for (const RegisteredQuery& existing : registered_) {
    if (existing.key == reg.key) return;  // already warmed
  }
  registered_.push_back(std::move(reg));
}

Status SensitivityServer::SubmitDelta(DatabaseDelta delta) {
  std::lock_guard<std::mutex> lock(queue_mu_);
  if (stop_) {
    return Status::Unsupported("SubmitDelta after Shutdown(): queue no "
                               "longer drains");
  }
  queue_.push_back(std::move(delta));
  queue_cv_.notify_one();
  return Status::OK();
}

Value SensitivityServer::InternValue(std::string_view s) {
  std::lock_guard<std::mutex> lock(dict_mu_);
  return master_.dict().Intern(s);
}

std::unique_ptr<ServerSession> SensitivityServer::OpenSession(
    std::string name) {
  CheckServing();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.sessions_opened;
  }
  return std::unique_ptr<ServerSession>(
      new ServerSession(this, std::move(name)));
}

bool SensitivityServer::TurnEpoch() {
  LSENS_CHECK_MSG(config_.manual_turns,
                  "TurnEpoch() is the manual-mode driver; the free-running "
                  "writer owns turns otherwise");
  CheckServing();
  return DoTurn();
}

void SensitivityServer::WriterLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
    }
    DoTurn();
  }
}

bool SensitivityServer::DoTurn() {
  // Admission: coalesce queued batches (up to the cap) into this turn, and
  // snapshot the registered-query list the warm pass will serve.
  std::vector<DatabaseDelta> batch;
  std::vector<RegisteredQuery> regs;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    while (!queue_.empty() && batch.size() < config_.max_turn_deltas) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    regs = registered_;
  }

  // Each batch applies all-or-nothing (Database::ApplyDelta): a poisoned
  // batch bumps nothing and the epoch published below — or left in place
  // when nothing applied — never reflects it.
  uint64_t applied = 0;
  uint64_t rejected = 0;
  for (const DatabaseDelta& delta : batch) {
    if (master_.ApplyDelta(delta).ok()) {
      ++applied;
    } else {
      ++rejected;
    }
  }
  if (applied == 0) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.empty_turns;
    stats_.deltas_rejected += rejected;
    return false;
  }

  // One repair pass per turn: the first Compute's SyncStore repairs every
  // shared node once; the remaining registered queries reassemble.
  auto next = std::make_shared<internal::Epoch>();
  for (const RegisteredQuery& reg : regs) {
    TSensComputeOptions opts = config_.options;
    opts.join.ctx = &writer_ctx_;
    StatusOr<SensitivityResult> result =
        cache_.Compute(reg.query, master_, opts);
    // A query the engines cannot answer stays unwarmed; readers see the
    // same error from their own cold compute.
    if (result.ok()) next->warm.emplace(reg.key, *std::move(result));
  }
  {
    std::lock_guard<std::mutex> lock(dict_mu_);
    next->db = master_.CloneSnapshot();
  }
  next->versions = next->db.VersionVector();
  next->memory = internal::MemoryPartsOf(next->db);

  // Publish: atomic swap of the current pointer, then reclaim whatever
  // retirement freed (with no pinned readers that is the previous epoch,
  // immediately).
  {
    std::lock_guard<std::mutex> lock(mu_);
    next->id = ++epoch_counter_;
    live_.push_back(next);
    current_ = std::move(next);
    ++stats_.epochs_published;
    ++stats_.turns;
    stats_.deltas_applied += applied;
    stats_.deltas_rejected += rejected;
    stats_.max_turn_deltas =
        std::max(stats_.max_turn_deltas, static_cast<uint64_t>(batch.size()));
    ReclaimLocked();
  }
  return true;
}

EpochPin SensitivityServer::PinCurrent() {
  CheckServing();
  std::lock_guard<std::mutex> lock(mu_);
  ++current_->pins;
  return EpochPin(this, current_);
}

void SensitivityServer::Unpin(internal::Epoch* epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  LSENS_CHECK(epoch->pins > 0);
  --epoch->pins;
  if (epoch->pins == 0 && epoch != current_.get()) ReclaimLocked();
}

void SensitivityServer::ReclaimLocked() {
  const size_t before = live_.size();
  std::erase_if(live_, [&](const std::shared_ptr<internal::Epoch>& e) {
    return e != current_ && e->pins == 0;
  });
  stats_.epochs_reclaimed += before - live_.size();
  stats_.epochs_live = live_.size();
}

StatusOr<SensitivityResult> SensitivityServer::ServeQuery(
    const EpochPin& pin, const ConjunctiveQuery& q, ExecContext& ctx) {
  CheckServing();
  LSENS_CHECK_MSG(pin.valid(), "QueryAt with a released EpochPin");
  WallTimer timer;
  internal::Epoch& epoch = *pin.epoch_;
  TSensComputeOptions opts = config_.options;
  opts.join.ctx = &ctx;
  // Readers may run on global-pool workers, and parallel regions never
  // nest, so a nonzero thread count would silently serialize there anyway.
  opts.join.threads = 0;
  const std::string key = SensitivityCache::Fingerprint(q, opts);

  // Warm map: filled by the writer before publish, immutable since.
  if (auto it = epoch.warm.find(key); it != epoch.warm.end()) {
    ctx.Record("serve.warm_hit", 0, 1, 0, timer.ElapsedSeconds());
    ctx.Record("serve.query", 0, 1, 0, timer.ElapsedSeconds());
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.queries_served;
    ++stats_.warm_hits;
    return it->second;
  }

  // Cold memo: results earlier readers computed on this epoch.
  {
    std::lock_guard<std::mutex> lock(epoch.cold_mu);
    if (auto it = epoch.cold.find(key); it != epoch.cold.end()) {
      SensitivityResult result = it->second;
      ctx.Record("serve.cold_hit", 0, 1, 0, timer.ElapsedSeconds());
      ctx.Record("serve.query", 0, 1, 0, timer.ElapsedSeconds());
      std::lock_guard<std::mutex> stats_lock(mu_);
      ++stats_.queries_served;
      ++stats_.cold_hits;
      return result;
    }
  }

  // Compute from the pinned snapshot on this reader's thread. Concurrent
  // readers racing on the same (epoch, query) both compute — results are
  // deterministic, so first-in wins the memo slot and they agree anyway.
  StatusOr<SensitivityResult> result =
      ComputeLocalSensitivity(q, epoch.db, opts);
  if (!result.ok()) {
    ctx.Record("serve.error", 0, 0, 0, timer.ElapsedSeconds());
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.queries_served;
    return result;
  }
  {
    std::lock_guard<std::mutex> lock(epoch.cold_mu);
    epoch.cold.emplace(key, *result);
  }
  ctx.Record("serve.cold_compute", 0, 1, 0, timer.ElapsedSeconds());
  ctx.Record("serve.query", 0, 1, 0, timer.ElapsedSeconds());
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.queries_served;
  ++stats_.cold_computes;
  return result;
}

void SensitivityServer::Shutdown() {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stop_ = true;
    queue_cv_.notify_all();
  }
  if (writer_.joinable()) writer_.join();  // the loop drains, then exits
  if (config_.manual_turns) {
    // Manual mode drains here: every queued batch still lands in a final
    // published epoch before the server refuses new work.
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(queue_mu_);
        if (queue_.empty()) break;
      }
      DoTurn();
    }
  }
  shutdown_.store(true, std::memory_order_release);
}

uint64_t SensitivityServer::current_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_->id;
}

ServingStats SensitivityServer::stats() const {
  ServingStats out;
  std::vector<std::shared_ptr<const std::vector<MemoryPart>>> memory;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = stats_;
    for (const auto& e : live_) memory.push_back(e->memory);
  }
  // Live epochs share the chunks no turn in between wrote: count each
  // buffer once. Summed here rather than on publish/unpin, so the pin path
  // never pays for a gauge only stats() reads, and outside mu_, so pins do
  // not wait for it either.
  std::vector<MemoryPart> parts;
  for (const auto& m : memory) parts.insert(parts.end(), m->begin(), m->end());
  out.epoch_bytes = SumDistinctBytes(std::move(parts));
  return out;
}

}  // namespace lsens
