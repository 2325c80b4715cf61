#include "decorators.hpp"

#include <utility>

namespace perf {

ClockedSource::ClockedSource(std::shared_ptr<tvbf::rt::FrameSource> inner,
                             double start_s, double period_s,
                             std::int64_t count, double deadline_s)
    : inner_(std::move(inner)), start_s_(start_s), period_s_(period_s),
      count_(count), deadline_s_(deadline_s) {
  late_ms_.reserve(4096);
}

bool ClockedSource::next(tvbf::rt::Frame& frame) {
  if (produced_ >= count_) return false;
  double due = now_s();
  if (period_s_ > 0.0) {
    due = start_s_ + static_cast<double>(produced_) * period_s_;
    sleep_until_s(due);
  } else if (due >= deadline_s_) {
    return false;
  }
  if (!inner_->next(frame)) return false;
  const double handed = now_s();
  frame.time_s = period_s_ > 0.0 ? due : handed;
  late_ms_.push_back((handed - due) * 1e3);
  ++produced_;
  return true;
}

void ClockedSource::reset() {
  // Pipeline::run rewinds its source before the first frame; the clock
  // keeps counting from start_s.
  inner_->reset();
  produced_ = 0;
  late_ms_.clear();
}

bool TracedSource::next(tvbf::rt::Frame& frame) {
  const double t0 = now_s();
  const bool have = inner_->next(frame);
  if (have) log_.add("source", session_, frame.index, t0, now_s());
  return have;
}

void ForwardLedger::record(const ForwardCall& call,
                           const std::vector<const float*>& outputs) {
  const std::lock_guard<std::mutex> lock(mu_);
  calls_.push_back(call);
  for (const float* p : outputs) by_output_[p] = calls_.size() - 1;
}

std::optional<ForwardCall> ForwardLedger::call_for(const float* iq) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_output_.find(iq);
  if (it == by_output_.end()) return std::nullopt;
  return calls_[it->second];
}

std::vector<ForwardCall> ForwardLedger::calls() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return calls_;
}

namespace {

/// beamform() through the ledger, on top of either interface.
template <class Interface>
class Traced : public Interface {
 public:
  Traced(std::shared_ptr<const tvbf::bf::Beamformer> inner,
         ForwardLedger& ledger)
      : inner_(std::move(inner)), ledger_(ledger) {}

  std::string name() const override { return inner_->name(); }

  tvbf::Tensor beamform(const tvbf::us::TofCube& cube) const override {
    const double t0 = now_s();
    tvbf::Tensor iq = inner_->beamform(cube);
    ledger_.record({t0, now_s(), 1}, {iq.raw()});
    return iq;
  }

 protected:
  std::shared_ptr<const tvbf::bf::Beamformer> inner_;
  ForwardLedger& ledger_;
};

class TracedBatched : public Traced<tvbf::bf::BatchedBeamformer> {
 public:
  TracedBatched(std::shared_ptr<const tvbf::bf::Beamformer> inner,
                const tvbf::bf::BatchedBeamformer& batched,
                ForwardLedger& ledger)
      : Traced(std::move(inner), ledger), batched_(batched) {}

  std::vector<tvbf::Tensor> beamform_batch(
      const std::vector<const tvbf::us::TofCube*>& cubes) const override {
    const double t0 = now_s();
    std::vector<tvbf::Tensor> iqs = batched_.beamform_batch(cubes);
    std::vector<const float*> outputs;
    outputs.reserve(iqs.size());
    for (const tvbf::Tensor& iq : iqs) outputs.push_back(iq.raw());
    ledger_.record({t0, now_s(), static_cast<std::int64_t>(iqs.size())},
                   outputs);
    return iqs;
  }

  bool encode_cost_probe(tvbf::device::CommandEncoder& encoder,
                         std::int64_t nz_total) const override {
    return batched_.encode_cost_probe(encoder, nz_total);
  }

 private:
  const tvbf::bf::BatchedBeamformer& batched_;  // inner_, viewed as batched
};

}  // namespace

std::shared_ptr<const tvbf::bf::Beamformer> traced(
    std::shared_ptr<const tvbf::bf::Beamformer> inner, ForwardLedger& ledger) {
  if (const auto* batched =
          dynamic_cast<const tvbf::bf::BatchedBeamformer*>(inner.get()))
    return std::make_shared<TracedBatched>(std::move(inner), *batched, ledger);
  return std::make_shared<Traced<tvbf::bf::Beamformer>>(std::move(inner),
                                                        ledger);
}

}  // namespace perf
