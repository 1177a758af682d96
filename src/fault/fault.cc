#include "fault/fault.h"

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <thread>

#include "common/logging.h"
#include "common/string_util.h"

namespace cascn::fault {

namespace {

constexpr uint64_t kDefaultSeed = 0x5EEDFA0175CADE5ULL;

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

uint64_t Fnv1a(std::string_view s) {
  uint64_t hash = 0xCBF29CE484222325ULL;
  for (const char c : s) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

/// Uniform double in [0, 1) from (seed, point, key) — the stateless firing
/// hash that makes keyed evaluation resume-safe.
double FiringUniform(uint64_t seed, std::string_view point, uint64_t key) {
  const uint64_t mixed =
      SplitMix64(seed ^ Fnv1a(point) ^ SplitMix64(key * 0x9E3779B97F4A7C15ULL));
  return static_cast<double>(mixed >> 11) * 0x1.0p-53;
}

Result<FaultSpec> ParseSpec(std::string_view text) {
  FaultSpec spec;
  std::string_view body = text;
  const size_t at = body.rfind('@');
  if (at != std::string_view::npos) {
    CASCN_ASSIGN_OR_RETURN(spec.value, ParseDouble(body.substr(at + 1)));
    body = body.substr(0, at);
  }
  const size_t colon = body.find(':');
  const std::string_view name =
      colon == std::string_view::npos ? body : body.substr(0, colon);
  const std::string_view arg =
      colon == std::string_view::npos ? std::string_view()
                                      : body.substr(colon + 1);
  if (name == "always") {
    if (!arg.empty())
      return Status::InvalidArgument("trigger 'always' takes no argument");
    spec.trigger = Trigger::kAlways;
  } else if (name == "prob") {
    spec.trigger = Trigger::kProbability;
    CASCN_ASSIGN_OR_RETURN(spec.probability, ParseDouble(arg));
    if (spec.probability < 0.0 || spec.probability > 1.0)
      return Status::InvalidArgument(
          StrFormat("probability %g outside [0, 1]", spec.probability));
  } else if (name == "nth" || name == "every") {
    spec.trigger = name == "nth" ? Trigger::kNth : Trigger::kEveryN;
    CASCN_ASSIGN_OR_RETURN(const int64_t n, ParseInt64(arg));
    if (n < 1)
      return Status::InvalidArgument(
          StrFormat("trigger '%s' needs a count >= 1", std::string(name).c_str()));
    spec.n = static_cast<uint64_t>(n);
  } else {
    return Status::InvalidArgument("unknown fault trigger: " +
                                   std::string(name));
  }
  return spec;
}

}  // namespace

FaultRegistry::FaultRegistry() : seed_(kDefaultSeed) {
  if (const char* seed_env = std::getenv("CASCN_FAULTS_SEED");
      seed_env != nullptr && seed_env[0] != '\0') {
    const auto parsed = ParseInt64(seed_env);
    CASCN_CHECK(parsed.ok()) << "bad CASCN_FAULTS_SEED: " << seed_env;
    seed_.store(static_cast<uint64_t>(parsed.value()),
                std::memory_order_relaxed);
  }
  if (const char* faults = std::getenv("CASCN_FAULTS");
      faults != nullptr && faults[0] != '\0') {
    const Status status = Configure(faults);
    CASCN_CHECK(status.ok()) << "bad CASCN_FAULTS: " << status;
  }
}

FaultRegistry& FaultRegistry::Get() {
  static FaultRegistry* registry = new FaultRegistry();  // leaked, like Tracer
  return *registry;
}

void FaultRegistry::Arm(const std::string& point, const FaultSpec& spec) {
  std::lock_guard<std::mutex> lock(mutex_);
  Armed& armed = points_[point];
  armed.spec = spec;
  armed.evaluations = 0;
  armed.fires = 0;
  enabled_.store(true, std::memory_order_relaxed);
}

void FaultRegistry::Disarm(const std::string& point) {
  std::lock_guard<std::mutex> lock(mutex_);
  points_.erase(point);
  if (points_.empty()) enabled_.store(false, std::memory_order_relaxed);
}

void FaultRegistry::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  points_.clear();
  enabled_.store(false, std::memory_order_relaxed);
}

Status FaultRegistry::Configure(std::string_view config) {
  for (const std::string& raw_entry : Split(config, ',')) {
    const std::string_view entry = Trim(raw_entry);
    if (entry.empty()) continue;
    const size_t eq = entry.find('=');
    if (eq == std::string_view::npos)
      return Status::InvalidArgument(
          "fault entry missing '=trigger': " + std::string(entry));
    const std::string point(Trim(entry.substr(0, eq)));
    if (point.empty())
      return Status::InvalidArgument("fault entry with empty point name: " +
                                     std::string(entry));
    CASCN_ASSIGN_OR_RETURN(const FaultSpec spec,
                           ParseSpec(Trim(entry.substr(eq + 1))));
    Arm(point, spec);
  }
  return Status::OK();
}

bool FaultRegistry::Evaluate(Armed& armed, std::string_view point,
                             uint64_t key) {
  ++armed.evaluations;
  bool fire = false;
  switch (armed.spec.trigger) {
    case Trigger::kAlways:
      fire = true;
      break;
    case Trigger::kProbability:
      fire = FiringUniform(seed(), point, key) < armed.spec.probability;
      break;
    case Trigger::kNth:
      fire = key + 1 == armed.spec.n;
      break;
    case Trigger::kEveryN:
      fire = (key + 1) % armed.spec.n == 0;
      break;
  }
  if (fire) ++armed.fires;
  return fire;
}

bool FaultRegistry::ShouldFire(std::string_view point) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = points_.find(point);
  if (it == points_.end()) return false;
  return Evaluate(it->second, point, it->second.evaluations);
}

bool FaultRegistry::ShouldFire(std::string_view point, uint64_t key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = points_.find(point);
  if (it == points_.end()) return false;
  return Evaluate(it->second, point, key);
}

double FaultRegistry::ArmedValue(std::string_view point,
                                 double fallback) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = points_.find(point);
  if (it == points_.end()) return fallback;
  return it->second.spec.value != 0.0 ? it->second.spec.value : fallback;
}

FaultRegistry::PointStats FaultRegistry::stats(
    const std::string& point) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = points_.find(point);
  if (it == points_.end()) return PointStats{};
  return PointStats{it->second.evaluations, it->second.fires};
}

std::vector<std::pair<std::string, FaultRegistry::PointStats>>
FaultRegistry::StatsSnapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, PointStats>> out;
  out.reserve(points_.size());
  for (const auto& [name, armed] : points_)
    out.emplace_back(name, PointStats{armed.evaluations, armed.fires});
  return out;
}

uint64_t FaultRegistry::total_fires() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t total = 0;
  for (const auto& [name, armed] : points_) total += armed.fires;
  return total;
}

Status InjectStatus(std::string_view point) {
  if (!ShouldFire(point)) return Status::OK();
  return Status::IoError("injected fault at '" + std::string(point) + "'");
}

Status InjectTornWrite(std::string_view point, std::string_view what,
                       const std::string& path, const std::string& bytes) {
  if (!ShouldFire(point)) return Status::OK();
  std::ofstream torn(path + ".tmp", std::ios::binary | std::ios::trunc);
  torn.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  return Status::IoError("injected fault: " + std::string(what) +
                         " write to " + path +
                         " torn mid-stream (destination untouched)");
}

bool MaybeDelay(std::string_view point) {
  FaultRegistry& registry = FaultRegistry::Get();
  if (!registry.enabled()) return false;
  if (!registry.ShouldFire(point)) return false;
  const double ms = registry.ArmedValue(point, /*fallback=*/10.0);
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<int64_t>(ms * 1000.0)));
  return true;
}

double PoisonNaN(std::string_view point, double v, uint64_t key) {
  if (!ShouldFire(point, key)) return v;
  return std::numeric_limits<double>::quiet_NaN();
}

}  // namespace cascn::fault
