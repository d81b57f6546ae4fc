#include "ml/sgd.hpp"

#include "util/error.hpp"

namespace hgc {

SgdOptimizer::SgdOptimizer(double learning_rate)
    : learning_rate_(learning_rate) {
  HGC_REQUIRE(learning_rate_ > 0.0, "learning rate must be positive");
}

void SgdOptimizer::step(std::span<double> params,
                        std::span<const double> grad) const {
  HGC_REQUIRE(params.size() == grad.size(), "params/grad size mismatch");
  for (std::size_t i = 0; i < params.size(); ++i)
    params[i] -= learning_rate_ * grad[i];
}

}  // namespace hgc
