#include "obs/flight_recorder.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/string_util.h"

namespace cascn::obs {

namespace {

size_t RoundUpPow2(size_t n) {
  size_t p = 8;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

std::string_view FlightOpName(FlightOp op) {
  switch (op) {
    case FlightOp::kUnknown: return "Unknown";
    case FlightOp::kCreate: return "Create";
    case FlightOp::kAppend: return "Append";
    case FlightOp::kPredict: return "Predict";
    case FlightOp::kClose: return "Close";
    case FlightOp::kRoute: return "Route";
  }
  return "Unknown";
}

FlightRecord FlightRecord::Of(const RequestContext& ctx, int shard_id,
                              FlightOp op, StatusCode status) {
  FlightRecord record;
  record.trace_id = ctx.trace_id;
  record.shard_id = static_cast<int16_t>(shard_id);
  record.op = op;
  record.status = static_cast<uint8_t>(status);
  record.set_tenant(ctx.tenant);
  record.set_session(ctx.session_id);
  return record;
}

FlightRecorder::FlightRecorder(size_t capacity)
    : slots_(RoundUpPow2(capacity)) {}

void FlightRecorder::Append(FlightRecord record) {
  const uint64_t seq_no = head_.fetch_add(1, std::memory_order_relaxed);
  record.seq_no = seq_no;
  Slot& slot = slots_[seq_no & (slots_.size() - 1)];
  uint64_t seq = slot.seq.load(std::memory_order_relaxed);
  // Odd = another writer owns this slot (the ring lapped a full revolution
  // while it was mid-write). Never wait on the hot path: drop and count.
  if ((seq & 1) != 0 ||
      !slot.seq.compare_exchange_strong(seq, seq + 1,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  uint64_t words[kWords];
  std::memcpy(words, &record, sizeof(record));
  for (size_t i = 0; i < kWords; ++i)
    slot.words[i].store(words[i], std::memory_order_relaxed);
  slot.seq.store(seq + 2, std::memory_order_release);
}

std::vector<FlightRecord> FlightRecorder::Snapshot() const {
  std::vector<FlightRecord> records;
  records.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    const uint64_t before = slot.seq.load(std::memory_order_acquire);
    if (before == 0 || (before & 1) != 0) continue;  // empty or mid-write
    uint64_t words[kWords];
    for (size_t i = 0; i < kWords; ++i)
      words[i] = slot.words[i].load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != before) continue;  // torn
    FlightRecord record;
    std::memcpy(&record, words, sizeof(record));
    records.push_back(record);
  }
  std::sort(records.begin(), records.end(),
            [](const FlightRecord& a, const FlightRecord& b) {
              return a.seq_no < b.seq_no;
            });
  return records;
}

std::string FlightRecorder::ToJsonLines(std::string_view reason) const {
  const std::vector<FlightRecord> records = Snapshot();
  std::ostringstream out;
  out << StrFormat(
      "{\"event\": \"flight_dump\", \"reason\": \"%s\", \"records\": %zu, "
      "\"appended\": %llu, \"dropped\": %llu}\n",
      JsonEscape(reason).c_str(), records.size(),
      static_cast<unsigned long long>(total_appended()),
      static_cast<unsigned long long>(dropped()));
  for (const FlightRecord& record : records) {
    // Fixed-size name fields are NUL-padded; rehydrate as C strings.
    const std::string tenant = JsonEscape(record.tenant);
    const std::string session = JsonEscape(record.session);
    out << StrFormat(
        "{\"seq\": %llu, \"trace_id\": \"%llx\", \"tenant\": \"%s\", "
        "\"session\": \"%s\", \"shard\": %d, \"op\": \"%s\", "
        "\"status\": \"%s\", \"queue_wait_ns\": %llu, \"exec_ns\": %llu, "
        "\"faults\": %u}\n",
        static_cast<unsigned long long>(record.seq_no),
        static_cast<unsigned long long>(record.trace_id), tenant.c_str(),
        session.c_str(), static_cast<int>(record.shard_id),
        std::string(FlightOpName(record.op)).c_str(),
        std::string(StatusCodeToString(static_cast<StatusCode>(record.status)))
            .c_str(),
        static_cast<unsigned long long>(record.queue_wait_ns),
        static_cast<unsigned long long>(record.exec_ns),
        static_cast<unsigned>(record.fault_bits));
  }
  return out.str();
}

Status FlightRecorder::Dump(const std::string& path,
                            std::string_view reason) const {
  const std::string lines = ToJsonLines(reason);
  std::lock_guard<std::mutex> lock(dump_mutex_);
  std::FILE* file = std::fopen(path.c_str(), "a");
  if (file == nullptr)
    return Status::IoError("cannot open flight-recorder dump file: " + path);
  const size_t written = std::fwrite(lines.data(), 1, lines.size(), file);
  std::fclose(file);
  if (written != lines.size())
    return Status::IoError("short write to flight-recorder dump file: " +
                           path);
  return Status::OK();
}

void FlightRecorder::SetDumpPath(std::string path) {
  std::lock_guard<std::mutex> lock(dump_mutex_);
  dump_path_ = std::move(path);
}

std::string FlightRecorder::dump_path() const {
  std::lock_guard<std::mutex> lock(dump_mutex_);
  return dump_path_;
}

void FlightRecorder::TriggerDump(std::string_view reason) {
  const std::string path = dump_path();
  if (path.empty()) return;
  dumps_.fetch_add(1, std::memory_order_relaxed);
  // Best-effort by design: a failed dump must never turn an anomaly into a
  // second failure on the serving path.
  (void)Dump(path, reason);
}

}  // namespace cascn::obs
