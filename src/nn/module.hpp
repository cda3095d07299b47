// Layer/module abstraction for the training framework.
//
// The framework uses explicit per-layer forward/backward (a "tape of
// layers") rather than a general autograd graph: every network in the paper
// is a feed-forward chain, and explicit backward passes are easy to verify
// with finite differences (see tests/test_grad_check.cpp).
//
// Conventions:
//  * forward(x) caches whatever the layer needs for backward;
//  * backward(grad_out) consumes the cache of the *most recent* forward and
//    accumulates parameter gradients into Param::grad;
//  * parameter gradients are accumulated (+=) so gradient accumulation over
//    micro-batches works; Optimizer::zero_grad() clears them.
//
// Alongside the training tape there is a stateless inference path:
// infer(x, ctx) is const, caches nothing, always uses eval-mode semantics
// (BatchNorm running stats, no backward tape), and draws any randomness
// from the caller's EvalContext. Concurrent infer calls over the same
// module are safe as long as each uses its own context; this is what the
// trial-parallel noisy evaluation in core/pipeline builds on.
#pragma once

#include "common/serialize.hpp"
#include "nn/eval_context.hpp"
#include "tensor/tensor.hpp"

#include <memory>
#include <string>
#include <vector>

namespace gbo::nn {

/// A learnable tensor plus its gradient accumulator.
struct Param {
  std::string name;   // local name, e.g. "weight"; qualified by the owner
  Tensor value;
  Tensor grad;
  bool requires_grad = true;

  Param() = default;
  Param(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(value.shape()) {}

  void zero_grad() { grad.fill(0.0f); }
};

class Module {
 public:
  virtual ~Module() = default;

  /// Computes the layer output and caches state for backward.
  virtual Tensor forward(const Tensor& x) = 0;

  /// Propagates the loss gradient; accumulates parameter gradients.
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// Stateless eval-mode forward: mutates neither the module nor any shared
  /// state, so concurrent calls with distinct contexts are safe. Randomness
  /// (crossbar noise, pulse-level reads) comes from ctx.streams(). Default
  /// throws; every concrete layer of this library overrides it.
  virtual Tensor infer(const Tensor& x, EvalContext& ctx) const;

  /// Direct child modules, for read-only tree walks (the serving backend's
  /// stochastic-hook scan). Containers override; leaf layers return {}.
  virtual std::vector<const Module*> children() const { return {}; }

  /// Learnable parameters (empty for stateless layers).
  virtual std::vector<Param*> params() { return {}; }

  /// Persistent non-learnable state (e.g. BatchNorm running stats).
  virtual std::vector<Param*> buffers() { return {}; }

  /// Train/eval mode switch (BatchNorm, noise injection behave differently).
  virtual void set_training(bool training) { training_ = training; }
  bool training() const { return training_; }

  /// Short type tag, e.g. "Conv2d".
  virtual std::string kind() const = 0;

  // -- checkpointing ---------------------------------------------------------

  /// Serializes params + buffers under `prefix` ("seq.3." etc.).
  void collect_state(const std::string& prefix, StateDict& out);

  /// Restores params + buffers; throws std::runtime_error on missing keys or
  /// shape mismatches (a wrong checkpoint must fail loudly).
  void load_state(const std::string& prefix, const StateDict& in);

 protected:
  bool training_ = true;
};

using ModulePtr = std::unique_ptr<Module>;

}  // namespace gbo::nn
