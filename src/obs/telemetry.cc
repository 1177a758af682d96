#include "obs/telemetry.h"

#include <cmath>

#include "common/string_util.h"

namespace cascn::obs {

void JsonObjectBuilder::AddKey(std::string_view key) {
  if (!body_.empty()) body_ += ", ";
  body_ += "\"";
  body_ += JsonEscape(key);
  body_ += "\": ";
}

JsonObjectBuilder& JsonObjectBuilder::Add(std::string_view key,
                                          double value) {
  AddKey(key);
  // JSON has no NaN/Inf literals; null keeps the line parseable.
  body_ += std::isfinite(value) ? StrFormat("%.6g", value) : "null";
  return *this;
}

JsonObjectBuilder& JsonObjectBuilder::Add(std::string_view key,
                                          int64_t value) {
  AddKey(key);
  body_ += StrFormat("%lld", static_cast<long long>(value));
  return *this;
}

JsonObjectBuilder& JsonObjectBuilder::Add(std::string_view key,
                                          uint64_t value) {
  AddKey(key);
  body_ += StrFormat("%llu", static_cast<unsigned long long>(value));
  return *this;
}

JsonObjectBuilder& JsonObjectBuilder::Add(std::string_view key, bool value) {
  AddKey(key);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObjectBuilder& JsonObjectBuilder::Add(std::string_view key,
                                          std::string_view value) {
  AddKey(key);
  body_ += "\"";
  body_ += JsonEscape(value);
  body_ += "\"";
  return *this;
}

std::string JsonObjectBuilder::Build() const { return "{" + body_ + "}"; }

void VectorTelemetrySink::Emit(const std::string& json_object) {
  std::lock_guard<std::mutex> lock(mutex_);
  lines_.push_back(json_object);
}

std::vector<std::string> VectorTelemetrySink::lines() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lines_;
}

Result<std::unique_ptr<FileTelemetrySink>> FileTelemetrySink::Open(
    const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "a");
  if (file == nullptr)
    return Status::IoError("cannot open telemetry file: " + path);
  return std::unique_ptr<FileTelemetrySink>(new FileTelemetrySink(file));
}

FileTelemetrySink::~FileTelemetrySink() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::fclose(file_);
}

void FileTelemetrySink::Emit(const std::string& json_object) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::fprintf(file_, "%s\n", json_object.c_str());
  std::fflush(file_);
}

void FileTelemetrySink::Flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::fflush(file_);
}

}  // namespace cascn::obs
