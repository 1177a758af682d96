// Black-box flight recorder: an always-on, fixed-size, lock-free ring of
// compact per-request records.
//
// Tracing and metrics answer questions you knew to ask in advance; the
// flight recorder answers "what were the last few thousand requests doing
// right before it went wrong". Every request that completes (or is
// rejected) appends one 72-byte record — trace id, tenant, session, shard,
// queue wait, execution time, terminal status, and which fault points
// fired — with no allocation, no lock, and no branching on an enable flag:
// the recorder is ALWAYS on, which is the point of a black box. The record
// is also the request's one outcome record: ServeMetrics, the SLO tracker
// and the circuit breakers all read the record the serving path built.
//
// On an anomaly trigger (load shed, deadline exceeded, shard crash, watchdog
// stall) the owner calls TriggerDump(reason) and the ring contents are
// appended to a JSON-lines file: one header object naming the reason, then
// one object per record, oldest first. Demo and bench binaries
// can also dump on demand. Dumps are rate-limited only by the caller; the
// append path never blocks on a dump in progress — a record being written
// while the dump reads its slot is simply skipped (its seqlock is odd).
//
// Concurrency: each slot is a seqlock — an atomic sequence word (odd while
// a writer owns the slot) plus the payload stored as relaxed atomic words.
// Writers claim slots round-robin via one fetch_add on the ring head; a
// writer that collides with a slot still being written (ring lapped within
// one write) drops its record and counts the drop rather than spinning.
// Readers (Snapshot/dump) validate the sequence word before and after
// copying and skip torn slots. No thread ever waits on another.

#ifndef CASCN_OBS_FLIGHT_RECORDER_H_
#define CASCN_OBS_FLIGHT_RECORDER_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/status.h"
#include "obs/request_context.h"

namespace cascn::obs {

/// Request operation recorded in the flight record.
enum class FlightOp : uint8_t {
  kUnknown = 0,
  kCreate = 1,
  kAppend = 2,
  kPredict = 3,
  kClose = 4,
  kRoute = 5,  // router-level rejection before any shard was reached
};

std::string_view FlightOpName(FlightOp op);

/// Fault points observed while serving the request, as bits in
/// FlightRecord::fault_bits.
enum FlightFault : uint16_t {
  kFaultBitSlowPredict = 1u << 0,   // serve.slow_predict delay fired
  kFaultBitExtraPredict = 1u << 1,  // per-shard extra predict point fired
  kFaultBitStale = 1u << 2,         // answered from the stale-read cache
};

/// One compact request record. Trivially copyable, fixed-size, no pointers:
/// the ring stores it as raw 64-bit words. Tenant/session are truncated to
/// their first 15 bytes — enough to identify, cheap to store.
struct FlightRecord {
  static constexpr size_t kNameCapacity = 16;  // incl. NUL

  uint64_t seq_no = 0;    // assigned by Append: global arrival order
  uint64_t trace_id = 0;  // 0 = request had no context
  uint64_t queue_wait_ns = 0;
  uint64_t exec_ns = 0;
  int16_t shard_id = -1;  // -1 = router level / unsharded service
  FlightOp op = FlightOp::kUnknown;
  uint8_t status = 0;  // StatusCode of the terminal status
  uint16_t fault_bits = 0;
  uint16_t reserved = 0;
  char tenant[kNameCapacity] = {};
  char session[kNameCapacity] = {};

  /// A record of `ctx`'s request (trace id, tenant, session) that ended
  /// with `status` on `shard_id` (-1 = router level).
  static FlightRecord Of(const RequestContext& ctx, int shard_id, FlightOp op,
                         StatusCode status);

  void set_tenant(std::string_view value) { CopyName(tenant, value); }
  void set_session(std::string_view value) { CopyName(session, value); }

 private:
  static void CopyName(char (&dest)[kNameCapacity], std::string_view value) {
    const size_t n = std::min(value.size(), kNameCapacity - 1);
    std::memcpy(dest, value.data(), n);
    dest[n] = '\0';
  }
};

static_assert(std::is_trivially_copyable_v<FlightRecord>,
              "flight records are stored as raw words");
static_assert(sizeof(FlightRecord) % sizeof(uint64_t) == 0,
              "flight records must pack into 64-bit words");

/// Fixed-capacity lock-free ring of FlightRecords. See file comment for
/// the concurrency model. All methods are thread-safe.
class FlightRecorder {
 public:
  /// `capacity` is rounded up to a power of two (minimum 8).
  explicit FlightRecorder(size_t capacity = 4096);

  size_t capacity() const { return slots_.size(); }

  /// Appends `record` (seq_no is assigned internally; the caller's value is
  /// ignored). Wait-free: one fetch_add plus relaxed word stores. If the
  /// claimed slot is still mid-write by a lapped writer, the record is
  /// dropped and counted instead.
  void Append(FlightRecord record);

  /// Total records ever appended (including any later overwritten).
  uint64_t total_appended() const {
    return head_.load(std::memory_order_relaxed);
  }
  /// Records dropped on writer collision (ring lapped within one write).
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  /// Anomaly dumps performed (TriggerDump with a configured path).
  uint64_t dumps_triggered() const {
    return dumps_.load(std::memory_order_relaxed);
  }

  /// Consistent copies of every live slot, oldest first (by seq_no). Slots
  /// being written during the scan are skipped.
  std::vector<FlightRecord> Snapshot() const;

  /// Serializes the current ring as JSON lines: a header object
  /// {"event":"flight_dump","reason":...,"records":N,"appended":...,
  /// "dropped":...} then one object per record.
  std::string ToJsonLines(std::string_view reason) const;

  /// Appends ToJsonLines(reason) to `path` (created if missing). Dumps are
  /// serialized against each other; appends never wait on a dump.
  Status Dump(const std::string& path, std::string_view reason) const;

  /// Sets the file anomaly dumps append to. Empty disables TriggerDump.
  void SetDumpPath(std::string path);
  std::string dump_path() const;

  /// Anomaly hook: dumps the ring to the configured path, tagged with
  /// `reason`. No-op (not an error) when no dump path is set, so callers
  /// can trigger unconditionally from error paths.
  void TriggerDump(std::string_view reason);

 private:
  static constexpr size_t kWords = sizeof(FlightRecord) / sizeof(uint64_t);

  struct Slot {
    // Even = stable, odd = write in progress; incremented twice per write.
    std::atomic<uint64_t> seq{0};
    std::array<std::atomic<uint64_t>, kWords> words{};
  };

  std::vector<Slot> slots_;
  std::atomic<uint64_t> head_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> dumps_{0};
  mutable std::mutex dump_mutex_;  // guards dump_path_ and dump file appends
  std::string dump_path_;
};

}  // namespace cascn::obs

#endif  // CASCN_OBS_FLIGHT_RECORDER_H_
