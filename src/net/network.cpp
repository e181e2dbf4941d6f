#include "net/network.hpp"

#include <cmath>
#include <stdexcept>

namespace scal::net {

void Network::set_delay_scale(double scale) {
  if (!(scale > 0.0) || !std::isfinite(scale)) {
    throw std::invalid_argument(
        "Network: delay scale must be positive and finite");
  }
  delay_scale_ = scale;
}

double Network::predict_delay(NodeId src, NodeId dst, double size) const {
  return delay_scale_ * router_.delay(src, dst, size);
}

void Network::send(NodeId src, NodeId dst, double size,
                   sim::EventFn on_arrival) {
  const double d = predict_delay(src, dst, size);
  ++messages_;
  sim().schedule_in(d, std::move(on_arrival));
}

void Network::set_loss(double probability, util::RandomStream rng) {
  if (!(probability >= 0.0) || !(probability < 1.0)) {
    throw std::invalid_argument("Network: loss probability in [0, 1)");
  }
  loss_probability_ = probability;
  loss_rng_ = rng;
}

void Network::set_faults(const NetFaults& faults, util::RandomStream rng) {
  auto check = [](const char* key, double p) {
    if (!(p >= 0.0) || !(p < 1.0)) {
      throw std::invalid_argument(std::string("Network: fault ") + key +
                                  " probability in [0, 1)");
    }
  };
  check("drop", faults.drop);
  check("duplicate", faults.duplicate);
  check("delay", faults.delay_probability);
  if (faults.delay_probability > 0.0 && !(faults.delay_mean > 0.0)) {
    throw std::invalid_argument("Network: fault delay mean must be positive");
  }
  faults_ = faults;
  fault_rng_ = rng;
}

void Network::send_unreliable(NodeId src, NodeId dst, double size,
                              sim::EventFn on_arrival) {
  if (loss_probability_ > 0.0 && loss_rng_ &&
      loss_rng_->bernoulli(loss_probability_)) {
    ++dropped_;
    return;
  }
  if (faults_.any() && fault_rng_) {
    if (faults_.drop > 0.0 && fault_rng_->bernoulli(faults_.drop)) {
      ++dropped_;
      return;
    }
    double extra = 0.0;
    if (faults_.delay_probability > 0.0 &&
        fault_rng_->bernoulli(faults_.delay_probability)) {
      extra = fault_rng_->exponential(faults_.delay_mean);
      ++delayed_;
    }
    if (faults_.duplicate > 0.0 && fault_rng_->bernoulli(faults_.duplicate)) {
      // The duplicate is a real second message (counted and charged)
      // delivered at the nominal delay; the original may lag behind it.
      ++duplicated_;
      send(src, dst, size, sim::EventFn(on_arrival));
    }
    const double d = predict_delay(src, dst, size) + extra;
    ++messages_;
    sim().schedule_in(d, std::move(on_arrival));
    return;
  }
  send(src, dst, size, std::move(on_arrival));
}

}  // namespace scal::net
