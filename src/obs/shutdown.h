// ShutdownDump: one exit-time flush for every observability surface.
//
// Binaries used to write their trace/metrics files ad hoc in the middle of
// main(), which silently dropped whatever was recorded afterwards (e.g.
// spans emitted by a PredictionService destructor running after the trace
// was already serialized). Instead, destroy everything that still records,
// then make a single call:
//
//   obs::ShutdownDumpOptions dump;
//   dump.trace_path = trace_out;      // "" skips
//   dump.metrics_path = metrics_out;  // "" skips
//   dump.telemetry = {sink.get()};
//   CASCN_CHECK(obs::ShutdownDump(dump).ok());
//
// Flush order: telemetry sinks first (cheapest, per-record durability),
// then the profiler (gauges bridged into the registry so the metrics dump
// carries them, table printed to stderr when CASCN_PROFILE is active), then
// the metrics JSON, then the Chrome trace — so each later artifact reflects
// everything the earlier steps produced.

#ifndef CASCN_OBS_SHUTDOWN_H_
#define CASCN_OBS_SHUTDOWN_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics_registry.h"
#include "obs/telemetry.h"

namespace cascn::obs {

struct ShutdownDumpOptions {
  /// Chrome trace-event output; empty skips.
  std::string trace_path;
  /// Registry JSON snapshot output; empty skips.
  std::string metrics_path;
  /// Registry to snapshot; null uses the process-global registry.
  MetricsRegistry* registry = nullptr;  // knob: test-seam
  /// Written to `metrics_path` instead of snapshotting `registry` when
  /// non-empty — for registries that die before shutdown (e.g. a
  /// PredictionService-local registry captured just before destruction).
  std::string metrics_json_override;
  /// Sinks to Flush(); null entries are ignored.
  std::vector<TelemetrySink*> telemetry;
};

/// Flushes everything per the options above. Returns the first error;
/// later stages still run so one bad path does not drop the rest.
Status ShutdownDump(const ShutdownDumpOptions& options = {});

}  // namespace cascn::obs

#endif  // CASCN_OBS_SHUTDOWN_H_
