// Deterministic, seeded fault injection for robustness testing.
//
// Subsystems declare named injection points (e.g. "checkpoint.torn_write",
// "trainer.nan_loss", "serve.slow_predict") at the places where production
// failures strike: mid-write crashes, poisoned losses, slow predicts.
// Tests, chaos jobs, and benchmarks arm points with a trigger — via the
// CASCN_FAULTS environment variable or the Arm()/Configure() API — and the
// hardened layer above gets to prove it survives.
//
//   CASCN_FAULTS="trainer.nan_loss=prob:0.1,checkpoint.load_fail=nth:2"
//   CASCN_FAULTS="serve.slow_predict=every:8@5"   # @5 = 5 ms payload
//   CASCN_FAULTS_SEED=42                          # reseed all points
//
// Determinism: whether an evaluation fires is a pure function of
// (seed, point name, evaluation key) — a splitmix64 hash, not a stateful
// stream — so a run that restarts mid-way (trainer resume) and passes its
// own keys (e.g. the global step) sees the exact same faults as an
// uninterrupted run. When no key is passed, the per-point evaluation
// counter is the key.
//
// Overhead: when nothing is armed, every ShouldFire() is one relaxed atomic
// load and a branch (the CASCN_PROFILE pattern); armed evaluation takes the
// registry mutex, which is fine because faults are a test-and-chaos-only
// mode, never a production hot path.
//
// Triggers:
//   always      fire on every evaluation
//   prob:P      fire with probability P per evaluation (deterministic hash)
//   nth:N       fire on exactly the Nth evaluation (1-based)
//   every:N     fire on every Nth evaluation
// An optional "@V" suffix attaches a double payload the injection point
// interprets (delay milliseconds, truncation bytes, ...).

#ifndef CASCN_FAULT_FAULT_H_
#define CASCN_FAULT_FAULT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace cascn::fault {

/// How an armed point decides to fire.
enum class Trigger { kAlways, kProbability, kNth, kEveryN };

/// Configuration of one armed injection point.
struct FaultSpec {
  Trigger trigger = Trigger::kAlways;
  double probability = 1.0;  // kProbability only
  uint64_t n = 1;            // kNth (1-based) and kEveryN period
  double value = 0.0;        // point-specific payload ("@V" suffix)
};

/// Process-global table of armed injection points. All methods thread-safe.
class FaultRegistry {
 public:
  /// The global instance; parses CASCN_FAULTS / CASCN_FAULTS_SEED on first
  /// use (a malformed spec aborts loudly — a chaos run with a typoed fault
  /// list must not silently test nothing).
  static FaultRegistry& Get();

  /// Arms `point` (replacing any existing spec) and enables the registry.
  void Arm(const std::string& point, const FaultSpec& spec);

  /// Disarms one point; the registry stays enabled while any point is armed.
  void Disarm(const std::string& point);

  /// Disarms everything, zeroes all statistics, disables the registry.
  void Clear();

  /// Parses and arms a comma-separated spec list (the CASCN_FAULTS syntax
  /// above). InvalidArgument on malformed entries; earlier entries in the
  /// list stay armed.
  Status Configure(std::string_view config);

  /// Reseeds the firing hash. Distinct seeds give independent fault
  /// schedules; the default is fixed so runs are reproducible out of the
  /// box.
  void set_seed(uint64_t seed) {
    seed_.store(seed, std::memory_order_relaxed);
  }
  uint64_t seed() const { return seed_.load(std::memory_order_relaxed); }

  /// False the instant nothing is armed — the zero-overhead gate.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Evaluates `point` using its own evaluation counter as the key.
  bool ShouldFire(std::string_view point);

  /// Evaluates `point` with a caller-supplied key (0-based). Keyed
  /// evaluation is resume-safe: the decision depends only on
  /// (seed, point, key), never on how many evaluations this process saw.
  bool ShouldFire(std::string_view point, uint64_t key);

  /// Payload ("@V") of an armed point, or `fallback` when not armed.
  double ArmedValue(std::string_view point, double fallback) const;

  /// Evaluation / fire counts of one point (zeros when never armed).
  struct PointStats {
    uint64_t evaluations = 0;
    uint64_t fires = 0;
  };
  PointStats stats(const std::string& point) const;

  /// Every armed point with its statistics, sorted by name.
  std::vector<std::pair<std::string, PointStats>> StatsSnapshot() const;

  /// Total fires across all points since the last Clear().
  uint64_t total_fires() const;

 private:
  struct Armed {
    FaultSpec spec;
    uint64_t evaluations = 0;
    uint64_t fires = 0;
  };

  FaultRegistry();

  bool Evaluate(Armed& armed, std::string_view point, uint64_t key);

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> seed_;
  mutable std::mutex mutex_;
  std::map<std::string, Armed, std::less<>> points_;
};

/// Hot-path check: one relaxed load when the registry is disabled.
inline bool ShouldFire(std::string_view point) {
  FaultRegistry& registry = FaultRegistry::Get();
  if (!registry.enabled()) return false;
  return registry.ShouldFire(point);
}

/// Keyed hot-path check (resume-safe; see FaultRegistry::ShouldFire).
inline bool ShouldFire(std::string_view point, uint64_t key) {
  FaultRegistry& registry = FaultRegistry::Get();
  if (!registry.enabled()) return false;
  return registry.ShouldFire(point, key);
}

/// OK unless `point` fires, in which case an IoError naming the point —
/// the standard way to make an I/O layer exhibit a failure.
Status InjectStatus(std::string_view point);

/// OK unless `point` fires, in which case it simulates a crash part-way
/// through an atomic write (common/file_util.h) of `bytes` to `path`: the
/// first half lands under the temp name `path`.tmp, `path` is untouched,
/// and the IoError names `what` (e.g. "checkpoint").
Status InjectTornWrite(std::string_view point, std::string_view what,
                       const std::string& path, const std::string& bytes);

/// Sleeps for the point's "@V" payload in milliseconds (default 10 ms) when
/// it fires; returns whether it fired. Models slow disks and slow forwards.
bool MaybeDelay(std::string_view point);

/// Returns NaN when `point` fires for `key`, otherwise `v` unchanged.
/// Models numeric poisoning (overflowed loss, corrupted gradient).
double PoisonNaN(std::string_view point, double v, uint64_t key);

}  // namespace cascn::fault

#endif  // CASCN_FAULT_FAULT_H_
