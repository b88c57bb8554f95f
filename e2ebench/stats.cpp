#include "stats.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace e2e {

double percentile(std::vector<double> values, double pct) {
  if (values.empty()) {
    throw std::invalid_argument("percentile of no samples");
  }
  std::sort(values.begin(), values.end());
  const double rank = pct / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

std::size_t samples_beyond(std::size_t n, unsigned pct_bp) {
  const std::size_t at_or_below = (n * pct_bp + 9999) / 10000;
  return n - at_or_below;
}

TailRule tail_rule(std::size_t n) {
  constexpr unsigned kLadderBp[] = {5000, 7500, 9000, 9500, 9900,
                                    9950, 9990, 9995, 9999};
  TailRule rule;
  rule.samples = n;
  bool found = false;
  for (const unsigned bp : kLadderBp) {
    const std::size_t beyond = samples_beyond(n, bp);
    if (beyond >= kTailBeyond) {
      rule.pct = static_cast<double>(bp) / 100.0;
      rule.beyond = beyond;
      found = true;
    }
  }
  if (!found) {
    throw std::invalid_argument("tail rule: " + std::to_string(n) +
                                " samples leave fewer than 10 above p50");
  }
  return rule;
}

void LayerSplit::add(const LayerSplit& o) {
  net += o.net;
  parse += o.parse;
  encode += o.encode;
  hop += o.hop;
  queue += o.queue;
  b_init += o.b_init;
  b_iter += o.b_iter;
  pcc += o.pcc;
  eval += o.eval;
  verify += o.verify;
  unattributed += o.unattributed;
}

void LayerSplit::scale(double f) {
  for (double* field : {&net, &parse, &encode, &hop, &queue, &b_init, &b_iter,
                        &pcc, &eval, &verify, &unattributed}) {
    *field *= f;
  }
}

LayerSplit attribute(const RequestTimes& t) {
  LayerSplit s;
  const double exec = t.over_wire ? t.run : t.total;
  s.eval = t.eval;
  s.verify = t.verify;
  switch (t.remainder) {
    case ExecRemainder::kNone:
      s.b_init = t.b_init;
      break;
    case ExecRemainder::kBIter:
      s.b_init = t.b_init;
      s.b_iter = exec - t.b_init - t.eval - t.verify;
      break;
    case ExecRemainder::kPcc:
      s.pcc = exec - t.eval - t.verify;
      break;
  }
  if (t.over_wire) {
    s.queue = t.queue;
    s.parse = t.parse;
    s.encode = t.encode;
    s.hop = t.hop;
    s.net = t.total - t.queue - t.run - t.parse - t.encode - t.hop;
  }
  s.unattributed = t.total - s.sum();
  return s;
}

LayerSplit mean_split(const std::vector<RequestTimes>& requests) {
  LayerSplit mean;
  for (const RequestTimes& t : requests) {
    mean.add(attribute(t));
  }
  if (!requests.empty()) {
    mean.scale(1.0 / static_cast<double>(requests.size()));
  }
  return mean;
}

}  // namespace e2e
