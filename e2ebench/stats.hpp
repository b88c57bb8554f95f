// The benchmark's own arithmetic: percentiles, the tail rule, and the
// split of one request's time into per-layer self times.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace e2e {

/// Percentile (0..100) of `values`, interpolated linearly between the
/// two closest ranks (the convention of bench/harness.hpp's
/// LatencySampler). Throws std::invalid_argument on an empty input.
[[nodiscard]] double percentile(std::vector<double> values, double pct);

[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

/// Samples a tail percentile must leave above it.
inline constexpr std::size_t kTailBeyond = 10;

/// The percentile a run reports as `tail_ms`.
struct TailRule {
  double pct = 0.0;          ///< the percentile used
  std::size_t samples = 0;   ///< the run's sample count
  std::size_t beyond = 0;    ///< samples ranked above that percentile
};

/// Samples ranked above the `pct_bp`-th percentile of `n` samples, with
/// the percentile in basis points of a whole (9900 = p99):
/// n - ceil(n * pct_bp / 10000), in exact integer arithmetic.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, unsigned pct_bp);

/// The highest percentile of the ladder p50, p75, p90, p95, p99, p99.5,
/// p99.9, p99.95, p99.99 that leaves at least kTailBeyond of `n`
/// samples above it. Throws std::invalid_argument when not even the
/// median does (n < 20).
[[nodiscard]] TailRule tail_rule(std::size_t n);

/// Which layer owns the part of a request's execution time that no
/// measured layer covers.
enum class ExecRemainder {
  kNone,   ///< B-INIT only (effort fast): the rest stays unattributed
  kBIter,  ///< b-iter: B-ITER's own work (hill climbing, re-evaluation)
  kPcc,    ///< pcc: PCC's own work outside the eval engine
};

/// One request's measured times in ms. Fields a workload does not
/// measure stay 0.
struct RequestTimes {
  double total = 0.0;   ///< traced request time: api call or round trip
  bool over_wire = false;
  ExecRemainder remainder = ExecRemainder::kNone;
  double queue = 0.0;   ///< response queue_ms (wire)
  double run = 0.0;     ///< response run_ms (wire); in-process = total
  double eval = 0.0;    ///< EvalStats::eval_ms of the request
  double b_init = 0.0;  ///< bind_initial_best on the request's row
  double verify = 0.0;  ///< verify_schedule on the request's answer
  double parse = 0.0;   ///< parse_serve_request on the request line
  double encode = 0.0;  ///< outcome_to_json(r).dump() of the answer
  double hop = 0.0;     ///< router round trip - direct round trip
};

/// One request's time split into layer self times (ms). The fields,
/// unattributed included, sum to RequestTimes::total.
struct LayerSplit {
  double net = 0.0;      ///< round trip - queue - run - protocol - hop
  double parse = 0.0;    ///< protocol: request parse
  double encode = 0.0;   ///< protocol: response encode
  double hop = 0.0;      ///< router
  double queue = 0.0;    ///< service queue wait
  double b_init = 0.0;
  double b_iter = 0.0;
  double pcc = 0.0;
  double eval = 0.0;
  double verify = 0.0;   ///< api re-verification
  double unattributed = 0.0;

  [[nodiscard]] double sum() const {
    return net + parse + encode + hop + queue + b_init + b_iter + pcc + eval +
           verify + unattributed;
  }
  void add(const LayerSplit& other);
  void scale(double factor);
};

/// Splits one request's time into layer self times. Execution time is
/// `run` over the wire and `total` in-process; the b-iter or pcc layer
/// takes what the measured layers leave of it, and `unattributed` is
/// whatever of `total` no layer claims.
[[nodiscard]] LayerSplit attribute(const RequestTimes& t);

/// Mean split over `requests` (all zero for an empty input).
[[nodiscard]] LayerSplit mean_split(const std::vector<RequestTimes>& requests);

}  // namespace e2e
