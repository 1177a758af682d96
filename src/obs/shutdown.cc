#include "obs/shutdown.h"

#include <cstdio>

#include "obs/profiler.h"
#include "obs/trace.h"

namespace cascn::obs {

Status ShutdownDump(const ShutdownDumpOptions& options) {
  Status first_error = Status::OK();
  const auto keep = [&first_error](Status status) {
    if (first_error.ok() && !status.ok()) first_error = std::move(status);
  };

  for (TelemetrySink* sink : options.telemetry)
    if (sink != nullptr) sink->Flush();

  MetricsRegistry& registry =
      options.registry != nullptr ? *options.registry : MetricsRegistry::Get();
  Profiler& profiler = Profiler::Get();
  if (profiler.enabled()) {
    profiler.ExportToRegistry(registry);
    std::fprintf(stderr, "%s", profiler.TakeSnapshot().ToTable().c_str());
  }

  if (!options.metrics_path.empty()) {
    std::FILE* out = std::fopen(options.metrics_path.c_str(), "w");
    if (out == nullptr) {
      keep(Status::IoError("cannot open metrics output file: " +
                           options.metrics_path));
    } else {
      const std::string json = options.metrics_json_override.empty()
                                   ? registry.JsonSnapshot()
                                   : options.metrics_json_override;
      std::fprintf(out, "%s\n", json.c_str());
      std::fclose(out);
    }
  }

  if (!options.trace_path.empty())
    keep(Tracer::Get().WriteChromeTrace(options.trace_path));

  return first_error;
}

}  // namespace cascn::obs
