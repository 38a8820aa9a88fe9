// In-process core of the serving layer: network + monitor loaded once,
// minibatch membership answered for the lifetime of the process.
//
// The batch-oriented `ranm_cli eval` re-loads the network and monitor
// artifacts on every invocation; at deployment time the monitor instead
// rides along with a live DNN, so the serving layer keeps both resident
// and answers each incoming minibatch through the batch-first pipeline:
// Network::forward_batch (one feature-extraction pass) feeding
// Monitor::contains_batch (one membership query per column). A
// ShardedMonitor is the intended unit of deployment — `threads` fans the
// shards of its lowered program out across cores — but any flat monitor
// serves too.
//
// MonitorService is the transport-independent API: tests and
// bench_serving call it directly (no subprocess, no socket), while the
// epoll Server exposes the same calls over the frame protocol, with every
// event loop calling the one service it was given.
//
// Every public call is thread-safe. Inference is const and reentrant —
// Network::forward_batch keeps no per-call state and Monitor queries keep
// their scratch per calling thread — so N threads share one network and
// one monitor in memory and answer queries in parallel without a lock.
// The lifetime counters are atomic; stats() may race with queries.
//
// Online adaptation (monitor lifecycle). The served monitor is an
// RCU-style snapshot: queries copy a shared_ptr under a tiny mutex, then
// run lock-free against that copy, so swap() and rollback() publish a new
// monitor atomically — every query is answered entirely by the old or the
// new snapshot, never a blend. observe_batch() stages live batches (as
// layer-k features) into the AdaptState; swap() folds the staged pool into
// a fresh monitor loaded from the pristine current-generation bytes —
// never the live object, so it runs on a background thread while queries
// continue — and publishes it as the next generation.
#pragma once

#include <array>
#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/monitor.hpp"
#include "core/monitor_builder.hpp"
#include "nn/network.hpp"
#include "serve/adapt.hpp"
#include "serve/protocol.hpp"
#include "serve/snapshot_store.hpp"
#include "util/annotations.hpp"

namespace ranm::serve {

/// Long-lived network + monitor pair answering minibatch queries.
class MonitorService {
 public:
  /// Queries contributing to the rolling warning-rate window in kStats.
  static constexpr std::size_t kRollingWindow = 64;

  /// Takes ownership of both artifacts. `layer_k` is the monitored layer
  /// (1-based, as everywhere); the monitor's dimension must equal the
  /// layer's feature dimension. `threads` is every served monitor's
  /// Monitor::set_threads (0 = hardware concurrency); a flat monitor has
  /// one shard, so it always runs inline.
  MonitorService(Network net, std::unique_ptr<Monitor> monitor,
                 std::size_t layer_k, std::size_t threads = 1);

  /// Loads both artifacts from disk once — the whole point of the serving
  /// layer over per-invocation CLI loads.
  [[nodiscard]] static MonitorService from_files(
      const std::string& net_path, const std::string& monitor_path,
      std::size_t layer_k, std::size_t threads = 1);

  MonitorService(const MonitorService&) = delete;
  MonitorService& operator=(const MonitorService&) = delete;

  /// Answers one minibatch into `warns` (resized to inputs.size()):
  /// warns[i] = 1 iff the monitor warns on inputs[i] (membership negated).
  /// The caller-owned vector keeps its capacity across calls, so a
  /// steady-state serving loop pays no per-query allocation. Throws
  /// std::invalid_argument on a shape mismatch or an oversized batch; the
  /// service stays usable after a failed query.
  void query_warns_into(std::span<const Tensor> inputs,
                        std::vector<std::uint8_t>& warns);

  /// Convenience wrapper allocating the verdict vector per call.
  [[nodiscard]] std::vector<std::uint8_t> query_warns(
      std::span<const Tensor> inputs);

  // ---- monitor lifecycle --------------------------------------------------

  /// True when this monitor family supports the observe/swap/rollback
  /// path (it has a serialiser and is not compiled/frozen).
  [[nodiscard]] bool adaptive() const noexcept;

  /// Stages one live minibatch for the next rebuild: extracts layer-k
  /// features, counts how many samples the *current* snapshot warns on
  /// (drift signal, per shard too for sharded monitors), and appends the
  /// features to the staging pool. Throws std::invalid_argument for
  /// frozen/compiled monitors and std::runtime_error past the staging cap.
  [[nodiscard]] ObserveReply observe_batch(std::span<const Tensor> inputs);

  /// Folds the staged samples into a fresh monitor loaded from the
  /// pristine current-generation bytes and publishes it as the next
  /// generation (persisted when a store is attached). Queries keep
  /// answering off the previous snapshot while the rebuild runs.
  [[nodiscard]] SwapReply swap() RANM_EXCLUDES(lifecycle_mu_);

  /// Restores generation `target` (0 = the previous one) and publishes it.
  [[nodiscard]] RollbackReply rollback(std::uint64_t target = 0)
      RANM_EXCLUDES(lifecycle_mu_);

  /// Attaches the on-disk generation store. On a fresh store the current
  /// generation is persisted; on a store carrying history (daemon
  /// restart) the newest persisted generation is published and returned
  /// (0 = nothing resumed).
  std::uint64_t set_snapshot_store(std::unique_ptr<SnapshotStore> store)
      RANM_EXCLUDES(lifecycle_mu_);

  /// Lifetime counters over every caller, the rolling window, and the
  /// per-shard table `ranm_cli info` shows. The counter fields are
  /// relaxed snapshots — safe to call while other threads query.
  [[nodiscard]] ServiceStats stats() const RANM_EXCLUDES(rolling_mu_);

  /// Published generation (0: adaptation disabled for this family).
  [[nodiscard]] std::uint64_t generation() const;
  /// Samples staged for the next swap.
  [[nodiscard]] std::uint64_t staged_samples() const;

  [[nodiscard]] std::size_t dimension() const noexcept { return dim_; }
  [[nodiscard]] std::size_t layer_k() const noexcept { return k_; }
  /// describe() of the current snapshot.
  [[nodiscard]] std::string monitor_description() const;

 private:
  /// The current snapshot: copied under the lock, used lock-free.
  [[nodiscard]] std::shared_ptr<Monitor> snapshot() const
      RANM_EXCLUDES(snapshot_mu_);
  /// Applies the host thread count to a freshly loaded monitor.
  void apply_threads(Monitor& monitor) const;
  /// Atomically publishes a monitor loaded from `bytes` as the snapshot.
  /// In-flight queries keep the snapshot they started with.
  void publish(const std::string& bytes) RANM_EXCLUDES(snapshot_mu_);
  /// Throws std::invalid_argument when adaptation is disabled.
  void require_adaptive(const char* what) const;
  void record_rolling(std::uint64_t samples, std::uint64_t warnings)
      RANM_EXCLUDES(rolling_mu_);

  Network net_;
  mutable Mutex snapshot_mu_;
  std::shared_ptr<Monitor> monitor_ RANM_GUARDED_BY(snapshot_mu_);
  std::size_t k_;
  std::size_t threads_;
  std::size_t dim_;         // fixed across swaps; publish() re-checks it
  MonitorBuilder builder_;  // binds net_ + k_; lives exactly as long
  // Null when the family has no serialiser (adaptation disabled).
  std::unique_ptr<AdaptState> adapt_;
  // Serialises swap/rollback/store attachment against each other; queries
  // and observes never take it.
  Mutex lifecycle_mu_;
  // Lifetime counters surfaced in stats frames. Atomic (relaxed): server
  // loops bump them while another loop reads them for a kStats.
  std::atomic<std::uint64_t> queries_{0};
  std::atomic<std::uint64_t> samples_{0};
  std::atomic<std::uint64_t> warnings_{0};
  // Rolling warning-rate ring: one {samples, warnings} entry per recent
  // query, summed into kStats so operators see drift, not lifetime
  // averages. A mutex (not atomics) because entries are pairs.
  mutable Mutex rolling_mu_;
  std::array<std::pair<std::uint64_t, std::uint64_t>, kRollingWindow>
      rolling_ RANM_GUARDED_BY(rolling_mu_){};
  std::size_t rolling_next_ RANM_GUARDED_BY(rolling_mu_) = 0;
  std::size_t rolling_filled_ RANM_GUARDED_BY(rolling_mu_) = 0;
};

}  // namespace ranm::serve
