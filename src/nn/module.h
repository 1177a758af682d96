// Module: base class for neural-network components with named trainable
// parameters. Provides the parameter registry that optimizers iterate and
// binary save/load of parameter values (common/sealed_frame.h fields).

#ifndef CASCN_NN_MODULE_H_
#define CASCN_NN_MODULE_H_

#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/sealed_frame.h"
#include "tensor/variable.h"

namespace cascn::nn {

/// Base class for layers and models. Subclasses register parameters in their
/// constructor; Parameters() exposes them (and those of registered
/// submodules) to optimizers and serialization.
class Module {
 public:
  virtual ~Module() = default;

  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// All trainable parameters, including those of registered submodules.
  std::vector<ag::Variable> Parameters() const;

  /// Parameters paired with hierarchical names ("mlp.layer0.weight").
  std::vector<std::pair<std::string, ag::Variable>> NamedParameters() const;

  /// Zeroes every parameter gradient.
  void ZeroGrad();

  /// Total number of trainable scalars.
  int64_t ParameterCount() const;

  /// Appends every parameter (name, shape, values) in registration order:
  ///   uint64 count; per parameter: uint64 name length, name bytes,
  ///   int32 rows, int32 cols, rows*cols doubles.
  void Save(FrameWriter& out) const;

  /// Reads parameters written by Save, checking each name and shape
  /// against this module, and changes nothing: pass the values to
  /// SetParameterValues once the rest of the input checks out.
  /// InvalidArgument for a count, name or shape mismatch; IoError for a
  /// corrupt name length or cut-short values.
  Result<std::vector<Tensor>> ReadParameterValues(FrameReader& in) const;

  /// Overwrites every parameter with `values`, in NamedParameters() order.
  /// The shapes must match.
  void SetParameterValues(const std::vector<Tensor>& values);

  /// ReadParameterValues, then SetParameterValues: a failed load leaves
  /// the module as it was.
  Status Load(FrameReader& in);

 protected:
  /// Registers a trainable parameter; returns the Variable to store.
  ag::Variable RegisterParameter(const std::string& name, Tensor value);

  /// Registers a submodule; its parameters are exposed under `name.`.
  /// The submodule must outlive this module.
  void RegisterSubmodule(const std::string& name, Module* submodule);

 private:
  std::vector<std::pair<std::string, ag::Variable>> parameters_;
  std::vector<std::pair<std::string, Module*>> submodules_;
};

}  // namespace cascn::nn

#endif  // CASCN_NN_MODULE_H_
