// Non-owning, non-allocating reference to a callable.
//
// The hot-path callback type of the kernel layer: ThreadPool::parallel_for
// bodies and the packed GEMM's panel packers (tensor/gemm.hpp). Unlike
// std::function, binding a lambda never copies it — a capture block larger
// than the small-buffer would otherwise cost one heap allocation per call,
// on every thread-pool dispatch of the zero-allocation serving path
// (tests/test_arena.cpp counts them). The referenced callable must outlive
// every call through the reference; passing a lambda straight into a
// blocking call (the only use here) satisfies that.
#pragma once

#include <type_traits>
#include <utility>

namespace gbo {

template <typename Sig>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, FunctionRef>>>
  FunctionRef(const F& f)  // NOLINT: implicit by design, function_ref-style
      : ctx_(const_cast<void*>(static_cast<const void*>(&f))),
        fn_([](void* ctx, Args... args) -> R {
          return (*static_cast<const F*>(ctx))(std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return fn_(ctx_, std::forward<Args>(args)...);
  }

 private:
  void* ctx_;
  R (*fn_)(void*, Args...);
};

}  // namespace gbo
