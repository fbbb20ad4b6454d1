/// \file trace.hpp
/// \brief In-memory span recording for the traced benchmark run.
///
/// Every decorator in decorators.hpp opens a span when a call crosses into
/// its layer and closes it when the call returns. Spans nest through a
/// stack, so each records its parent; a layer's self time is the duration
/// of its spans minus the time their direct children cover. The traced
/// run is single-threaded, so one recorder needs no locking.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <vector>

namespace e2e {

/// The layers a span can belong to, named after the src/ modules.
enum class Layer : std::uint8_t {
  kSpec,      ///< One rebuilt simulation, end to end (build + run + teardown).
  kSim,       ///< sim::Simulation::run().
  kCore,      ///< core::SchedulingPolicy callbacks.
  kCtx,       ///< core::SchedulerContext calls back into the simulation.
  kObs,       ///< sim::Instrument::on_events deliveries.
  kWorkload,  ///< wl::JobStream::next() or wl::load_source().
  kPm,        ///< pm::PowerManager hooks.
};
inline constexpr std::size_t kLayerCount = 7;

const char* layer_name(Layer layer);

struct Span {
  Layer layer = Layer::kSpec;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< Index into the span list; -1 = root.
};

/// Per-layer totals over a span list.
struct LayerTotals {
  std::array<double, kLayerCount> self_s{};      ///< Σ self time.
  std::array<double, kLayerCount> duration_s{};  ///< Σ span duration.

  [[nodiscard]] double self(Layer layer) const {
    return self_s[static_cast<std::size_t>(layer)];
  }
  [[nodiscard]] double duration(Layer layer) const {
    return duration_s[static_cast<std::size_t>(layer)];
  }
};

/// Self time of every span = its duration minus the durations of its
/// direct children, summed per layer. Spans must be complete, and every
/// parent index must precede its child (the order SpanRecorder produces).
LayerTotals layer_totals(const std::vector<Span>& spans);

class SpanRecorder {
 public:
  [[nodiscard]] static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// Opens a span under the innermost open one; returns its index.
  std::int32_t open(Layer layer);
  /// Closes the innermost open span, which must be `index`; otherwise the
  /// recording is marked broken (see well_nested()).
  void close(std::int32_t index) noexcept;

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Every span closed, in LIFO order: the spans form a valid tree.
  [[nodiscard]] bool well_nested() const { return nested_ && open_.empty(); }

  /// One `layer,start_ns,end_ns,parent` line per span, times relative to
  /// the first span's start.
  void write_csv(std::ostream& out) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
  bool nested_ = true;
};

/// RAII span: opens on construction, closes on destruction (also when the
/// traced call throws).
class SpanScope {
 public:
  SpanScope(SpanRecorder& recorder, Layer layer)
      : recorder_(recorder), index_(recorder.open(layer)) {}
  ~SpanScope() { recorder_.close(index_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder& recorder_;
  std::int32_t index_;
};

}  // namespace e2e
