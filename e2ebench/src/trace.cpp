#include "trace.hpp"

#include <ostream>
#include <stdexcept>

namespace e2e {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kSpec: return "spec";
    case Layer::kSim: return "sim";
    case Layer::kCore: return "core";
    case Layer::kCtx: return "sim.ctx";
    case Layer::kObs: return "sim.obs";
    case Layer::kWorkload: return "workload";
    case Layer::kPm: return "pm";
  }
  return "?";
}

LayerTotals layer_totals(const std::vector<Span>& spans) {
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.parent >= 0) {
      if (static_cast<std::size_t>(span.parent) >= i) {
        throw std::logic_error("span parent does not precede its child");
      }
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  LayerTotals totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto layer = static_cast<std::size_t>(spans[i].layer);
    const std::int64_t duration = spans[i].end_ns - spans[i].start_ns;
    totals.duration_s[layer] += 1e-9 * static_cast<double>(duration);
    totals.self_s[layer] += 1e-9 * static_cast<double>(duration - child_ns[i]);
  }
  return totals;
}

std::int32_t SpanRecorder::open(Layer layer) {
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(Span{layer, now_ns(), 0, open_.empty() ? -1 : open_.back()});
  open_.push_back(index);
  return index;
}

void SpanRecorder::close(std::int32_t index) noexcept {
  // Decorators close in strict LIFO order; anything else is a bug in the
  // benchmark that makes the self-time arithmetic meaningless. Called from
  // destructors, so it flags instead of throwing.
  if (open_.empty() || open_.back() != index) {
    nested_ = false;
    return;
  }
  open_.pop_back();
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
}

void SpanRecorder::write_csv(std::ostream& out) const {
  out << "layer,start_ns,end_ns,parent\n";
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& span : spans_) {
    out << layer_name(span.layer) << ',' << span.start_ns - origin << ','
        << span.end_ns - origin << ',' << span.parent << '\n';
  }
}

}  // namespace e2e
