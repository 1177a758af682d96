#include "nn/module.h"

#include <cstdint>

#include "common/logging.h"
#include "common/string_util.h"

namespace cascn::nn {

std::vector<ag::Variable> Module::Parameters() const {
  std::vector<ag::Variable> out;
  for (const auto& [name, p] : parameters_) out.push_back(p);
  for (const auto& [name, sub] : submodules_) {
    auto nested = sub->Parameters();
    out.insert(out.end(), nested.begin(), nested.end());
  }
  return out;
}

std::vector<std::pair<std::string, ag::Variable>> Module::NamedParameters()
    const {
  std::vector<std::pair<std::string, ag::Variable>> out = parameters_;
  for (const auto& [name, sub] : submodules_) {
    for (auto& [nested_name, p] : sub->NamedParameters())
      out.emplace_back(name + "." + nested_name, p);
  }
  return out;
}

void Module::ZeroGrad() {
  for (auto& p : Parameters()) p.ZeroGrad();
}

int64_t Module::ParameterCount() const {
  int64_t count = 0;
  for (const auto& p : Parameters()) count += p.value().size();
  return count;
}

void Module::Save(FrameWriter& out) const {
  const auto named = NamedParameters();
  out.Put<uint64_t>(named.size());
  for (const auto& [name, p] : named) {
    out.Put<uint64_t>(name.size());
    out.PutBytes(name.data(), name.size());
    out.Put<int32_t>(p.value().rows());
    out.Put<int32_t>(p.value().cols());
    out.PutBytes(p.value().data(), sizeof(double) * p.value().size());
  }
}

Result<std::vector<Tensor>> Module::ReadParameterValues(
    FrameReader& in) const {
  const auto named = NamedParameters();
  uint64_t n = 0;
  if (!in.Get(&n, "parameter count").ok() || n != named.size())
    return Status::InvalidArgument(
        StrFormat("parameter count mismatch: file has %llu, module has %zu",
                  static_cast<unsigned long long>(n), named.size()));
  std::vector<Tensor> values;
  values.reserve(named.size());
  for (const auto& [name, p] : named) {
    uint64_t name_len = 0;
    if (!in.Get(&name_len, "parameter name length").ok() ||
        name_len > 1 << 20)
      return Status::IoError("corrupt parameter name length");
    // A name or shape cut short cannot match, so it reads as a mismatch.
    std::string file_name(name_len, '\0');
    if (!in.GetBytes(file_name.data(), file_name.size(), "parameter name")
             .ok() ||
        file_name != name)
      return Status::InvalidArgument("parameter name mismatch: expected " +
                                     name + ", file has " + file_name);
    int32_t rows = 0, cols = 0;
    if (!in.Get(&rows, "parameter rows").ok() ||
        !in.Get(&cols, "parameter cols").ok() || rows != p.value().rows() ||
        cols != p.value().cols())
      return Status::InvalidArgument("parameter shape mismatch for " + name);
    Tensor value(rows, cols);
    CASCN_RETURN_IF_ERROR(in.GetBytes(
        value.data(), sizeof(double) * value.size(), "parameter data"));
    values.push_back(std::move(value));
  }
  return values;
}

void Module::SetParameterValues(const std::vector<Tensor>& values) {
  auto named = NamedParameters();
  CASCN_CHECK(values.size() == named.size());
  for (size_t i = 0; i < named.size(); ++i) {
    CASCN_CHECK(values[i].SameShape(named[i].second.value()));
    named[i].second.mutable_value() = values[i];
  }
}

Status Module::Load(FrameReader& in) {
  CASCN_ASSIGN_OR_RETURN(const std::vector<Tensor> values,
                         ReadParameterValues(in));
  SetParameterValues(values);
  return Status::OK();
}

ag::Variable Module::RegisterParameter(const std::string& name, Tensor value) {
  ag::Variable p = ag::Variable::Leaf(std::move(value), /*requires_grad=*/true);
  parameters_.emplace_back(name, p);
  return p;
}

void Module::RegisterSubmodule(const std::string& name, Module* submodule) {
  CASCN_CHECK(submodule != nullptr);
  submodules_.emplace_back(name, submodule);
}

}  // namespace cascn::nn
