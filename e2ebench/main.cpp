// e2ebench — the end-to-end binding benchmark: whole requests through
// the public entry points, with per-layer attribution.
//
//   e2ebench --workload table_cold|router_warm|all
//            --seed N --seconds S --trace 0|1
//
// Workloads (every one a closed loop: a compiler, or a `make -j` of
// compile jobs, waits for each binding before it asks for the next):
//
//  * table_cold: cvb::run_bind_request in-process, one caller, no shared
//    engine, so every request starts with an empty schedule cache (the
//    `cvbind` and library path). Every Table 1 and Table 2 row plus four
//    fabric rows, each as pcc and as b-iter at balanced effort, in
//    whole passes of a seeded permutation. One pass misses the cache
//    about 273k times, four times the 65,536-entry cache, so a shared
//    engine would gain nothing: the work is B-ITER's delta evaluation,
//    PCC's evaluate_batch, cache inserts and list scheduling.
//  * router_warm: net::Router in front of two workers, each a
//    cvb::Service + net::NetServer on a Unix socket built as `cvserve
//    --socket` builds them. One NDJSON and one binary-frame connection
//    take turns, so one request is in flight, as for one compiler:
//    b-iter at balanced effort over a fixed draw of Table 1 rows whose
//    cold cache footprint fits the cache. Set-up fills the caches, so
//    evaluations become cache reads on the worker the consistent-hash
//    ring pins each row to.
//
// There is no workload of effort-fast requests sent straight to one
// worker, where protocol, framing and the epoll loop were a third of
// the round trip: on a shared host its p50 and throughput spread 27%
// between runs of the same code, past the 25% the benchmark allows.
//
// Every run checks every answer (see check.hpp) and, for table_cold,
// that the eval counters of each pass are identical. --seconds sets the
// run length as an amount of work, so that a run's sample count, and
// with it the tail percentile, does not depend on the machine: whole
// table_cold passes of about 5 s each, and a fixed request count on
// router_warm. The last line of stdout is one JSON object
// {"correct","attempted","failed","metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. A traced run
// repeats the timed window with spans recorded by this file around the
// calls into each layer (one id per request; router_warm also re-sends
// each request straight to its ring owner), then times the compute
// layers in-process on each distinct request, and writes the spans as
// Chrome trace JSON to .e2e_run/.
//
// The whole process, servers and clients alike, runs on one CPU. A
// request then crosses from client to loop to service worker and back
// by context switches on that CPU. Spread over the machine's vCPUs, each
// of those hand-offs woke an idle vCPU through the hypervisor, and on a
// shared host that cost swung latency and throughput over the wire by
// 20-75% between runs of the same code.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/api.hpp"
#include "bind/bound_dfg.hpp"
#include "bind/driver.hpp"
#include "check.hpp"
#include "net/router.hpp"
#include "requests.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/verifier.hpp"
#include "service/protocol.hpp"
#include "stats.hpp"
#include "support/json.hpp"
#include "support/trace.hpp"
#include "tests/reference_scheduler.hpp"
#include "wire.hpp"

namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;

constexpr const char* kRunDir = ".e2e_run";
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 7;
/// Client connections of router_warm: one NDJSON, one binary, taking
/// turns with one request in flight.
constexpr int kConnections = 2;
/// table_cold: nominal seconds of one pass on a 4-vCPU x86 VM.
constexpr int kPassSeconds = 5;
/// router_warm: requests per second of --seconds, sized so a run takes
/// about --seconds on one CPU of a 4-vCPU x86 VM.
constexpr int kRouterWarmPerSecond = 110;
/// A run that has not finished after this long is stopped (exit 3).
constexpr int kWatchdogSeconds = 170;
/// Repetitions of each in-process layer timing (median taken).
constexpr int kLayerReps = 11;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Options {
  std::string workload = "all";
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One workload's outcome: the JSON result plus report lines.
struct Result {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

void note(const std::string& line) { std::cout << "  " << line << '\n'; }

/// Restricts the process to the highest-numbered CPU it may run on.
/// Called before any thread starts, so every thread inherits it.
/// Returns the CPU, or -1 (with errno set) when it cannot.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    return -1;
  }
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      return ::sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
    }
  }
  return -1;
}

/// Host-wide CPU time counters from /proc/stat: {steal, total} ticks.
std::pair<double, double> host_cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  double total = 0.0;
  double steal = 0.0;
  for (int i = 0; i < 8; ++i) {
    double ticks = 0.0;
    in >> ticks;
    total += ticks;
    steal = i == 7 ? ticks : steal;
  }
  return {steal, total};
}

/// Reports the share of vCPU time the hypervisor gave to other guests
/// since `before`: the usual cause of run-to-run spread on a shared host.
void note_steal(const std::pair<double, double>& before) {
  const auto [steal, total] = host_cpu_ticks();
  const double share =
      total > before.second ? (steal - before.first) / (total - before.second)
                            : 0.0;
  std::ostringstream line;
  line << "host CPU steal during the timed window: " << 100.0 * share << "%";
  note(line.str());
}

/// One timed request and, once checked, its answer.
struct Sample {
  int distinct = 0;
  double start_ms = 0.0;  ///< wire: send time since the window began
  double ms = 0.0;        ///< api call, or send to complete response
  bool ok = false;
  std::string error;
  cvb::Binding binding;
  int latency = 0;
  int moves = 0;
  double queue_ms = 0.0;
  double run_ms = 0.0;
  cvb::EvalStats eval;  ///< in-process: exact; wire: timings fields only
  std::string raw;      ///< wire: the response JSON, parsed after the window
  std::size_t bytes = 0;
};

/// A distinct request's answer, checked once per run.
struct Answer {
  bool seen = false;
  cvb::Binding binding;
  int latency = 0;
  int moves = 0;
  std::string failure;
  /// Response fields of the first answer (what protocol.encode re-encodes).
  double queue_ms = 0.0;
  double run_ms = 0.0;
  cvb::EvalStats eval;
};

const cvb::JsonValue& field(const cvb::JsonValue& obj, const char* key) {
  const cvb::JsonValue* value = obj.find(key);
  if (value == nullptr) {
    throw std::runtime_error(std::string("no '") + key + "' field");
  }
  return *value;
}

/// Fills a wire sample's answer and response fields from its raw JSON.
void parse_response(Sample& s, const Distinct& d) {
  try {
    const cvb::JsonValue doc = cvb::JsonValue::parse(s.raw);
    const cvb::JsonValue* status = doc.find("status");
    const cvb::JsonValue* id = doc.find("id");
    if (status == nullptr || !status->is_string() ||
        status->as_string() != "ok") {
      s.error = "response not ok: " + s.raw.substr(0, 200);
      return;
    }
    if (id == nullptr || !id->is_string() || id->as_string() != d.id) {
      s.error = "response id does not match request " + d.id;
      return;
    }
    s.latency = static_cast<int>(field(doc, "latency").as_number());
    s.moves = static_cast<int>(field(doc, "moves").as_number());
    for (const cvb::JsonValue& c : field(doc, "binding").as_array()) {
      s.binding.push_back(static_cast<cvb::ClusterId>(c.as_number()));
    }
    s.queue_ms = field(doc, "queue_ms").as_number();
    s.run_ms = field(doc, "run_ms").as_number();
    const cvb::JsonValue& timings = field(doc, "timings");
    s.eval.eval_ms = field(timings, "eval_ms").as_number();
    s.eval.candidates =
        static_cast<long long>(field(timings, "eval_candidates").as_number());
    s.ok = true;
  } catch (const std::exception& e) {
    s.error = std::string("malformed response: ") + e.what();
  }
}

/// Marks failed samples and checks each distinct answer once
/// (check_answer); every later answer to the same request must equal
/// the first. Returns the number of samples newly failed.
long long check_samples(const std::vector<Distinct>& ds,
                        std::vector<Sample>& samples,
                        std::vector<Answer>& answers) {
  long long failed = 0;
  int reported = 0;
  const auto fail = [&](Sample& s, const std::string& why) {
    s.ok = false;
    ++failed;
    if (reported++ < 5) {
      note("FAIL " + ds[static_cast<std::size_t>(s.distinct)].row.label() +
           " " + ds[static_cast<std::size_t>(s.distinct)].strategy_label() +
           ": " + why);
    }
  };
  for (Sample& s : samples) {
    if (!s.ok) {
      fail(s, s.error);
      continue;
    }
    const Distinct& d = ds[static_cast<std::size_t>(s.distinct)];
    Answer& a = answers[static_cast<std::size_t>(s.distinct)];
    if (!a.seen) {
      a.seen = true;
      a.binding = s.binding;
      a.latency = s.latency;
      a.moves = s.moves;
      a.queue_ms = s.queue_ms;
      a.run_ms = s.run_ms;
      a.eval = s.eval;
      a.failure = check_answer(d.dfg, d.datapath, d.row.single_bus(),
                               s.binding, s.latency, s.moves);
    } else if (s.binding != a.binding || s.latency != a.latency ||
               s.moves != a.moves) {
      fail(s, "answer differs from an earlier answer to the same request");
      continue;
    }
    if (!a.failure.empty()) {
      fail(s, a.failure);
    }
  }
  return failed;
}

/// Records the checked samples of one window in `r`.
void tally(Result& r, long long failed, std::size_t samples) {
  r.attempted += static_cast<long long>(samples);
  r.failed += failed;
  if (failed > 0) {
    r.correct = false;
  }
}

std::vector<double> sample_ms(const std::vector<Sample>& samples) {
  std::vector<double> ms;
  ms.reserve(samples.size());
  for (const Sample& s : samples) {
    ms.push_back(s.ms);
  }
  return ms;
}

/// The end-to-end metrics. p50 and the tail rule are over every
/// sample, throughput over the whole timed window of `window_s`
/// seconds: on a host whose speed wanders from second to second, the
/// whole window averages that out better than a median of its parts.
void add_end_to_end(Result& r, const std::vector<Sample>& samples,
                    double window_s, const std::vector<Answer>& answers,
                    double setup_s) {
  const std::vector<double> ms = sample_ms(samples);
  const TailRule rule = tail_rule(ms.size());
  long long ok = 0;
  for (const Sample& s : samples) {
    ok += s.ok ? 1 : 0;
  }
  long long l_sum = 0;
  long long m_sum = 0;
  int distinct = 0;
  for (const Answer& a : answers) {
    if (a.seen) {
      l_sum += a.latency;
      m_sum += a.moves;
      ++distinct;
    }
  }
  r.add("p50_ms", median(ms), "ms");
  r.add("tail_ms", percentile(ms, rule.pct), "ms");
  r.add("throughput_rps", static_cast<double>(ok) / window_s, "1/s");
  r.add("L_sum", static_cast<double>(l_sum), "cycles");
  r.add("M_sum", static_cast<double>(m_sum), "count");
  r.add("setup_s", setup_s, "s");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
  std::ostringstream line;
  line << "tail_ms is p" << rule.pct << " of " << rule.samples
       << " samples (" << rule.beyond << " beyond it)";
  line << "; throughput_rps over a " << window_s
       << " s window; L_sum/M_sum over " << distinct
       << " distinct (row, strategy) answers; fail_ratio " << r.failed << "/"
       << r.attempted << " = "
       << static_cast<double>(r.failed) / static_cast<double>(r.attempted);
  note(line.str());
}

// ---- in-process layer timings -------------------------------------------

/// In-process timings of the compute layers on one distinct request.
struct Estimate {
  double parse_ms = 0.0;
  double encode_ms = 0.0;
  double b_init_ms = 0.0;
  double verify_ms = 0.0;
  double sched_us = 0.0;
  double ref_us = 0.0;  ///< frozen reference core; 0 off single-bus rows
};

volatile std::size_t g_sink = 0;  // keeps timed results observable

/// Median wall time (ms) of `reps` calls of `fn`, recorded as one span
/// carrying the distinct request's id.
template <typename Fn>
double timed_median_ms(cvb::Tracer& tracer, const char* span,
                       const std::string& request, int reps, Fn&& fn) {
  cvb::ScopedSpan scope(&tracer, span);
  scope.attr("request", request);
  scope.attr("reps", reps);
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    g_sink = g_sink + fn();
    ms.push_back(ms_between(t0, Clock::now()));
  }
  return median(ms);
}

std::vector<Estimate> measure_layers(const std::vector<Distinct>& ds,
                                     const std::vector<Answer>& answers,
                                     bool wire, cvb::Tracer& tracer) {
  std::vector<Estimate> out(ds.size());
  cvb::SchedArena arena;
  cvb::testref::RefSchedArena ref_arena;
  cvb::Schedule sched_out;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const Distinct& d = ds[i];
    const Answer& a = answers[i];
    if (!a.seen || !a.failure.empty()) {
      continue;
    }
    Estimate& e = out[i];
    if (wire) {
      e.parse_ms = timed_median_ms(tracer, "protocol.parse", d.id, kLayerReps,
                                   [&] {
                                     return cvb::parse_serve_request(d.json)
                                         .job.dfg.num_ops();
                                   });
      cvb::BindOutcome outcome;
      outcome.id = d.id;
      outcome.status = cvb::BindStatus::kOk;
      outcome.binding = a.binding;
      outcome.latency = a.latency;
      outcome.moves = a.moves;
      outcome.queue_ms = a.queue_ms;
      outcome.run_ms = a.run_ms;
      outcome.eval_stats = a.eval;
      e.encode_ms =
          timed_median_ms(tracer, "protocol.encode", d.id, kLayerReps, [&] {
            return cvb::outcome_to_json(outcome).dump().size();
          });
    }
    if (d.runs_b_init()) {
      const cvb::DriverParams params = cvb::driver_params_for(d.effort);
      e.b_init_ms = timed_median_ms(tracer, "b-init.bind_initial_best", d.id,
                                    kLayerReps, [&] {
                                      return static_cast<std::size_t>(
                                          cvb::bind_initial_best(
                                              d.dfg, d.datapath, params)
                                              .schedule.latency);
                                    });
    }
    const cvb::BoundDfg bound =
        cvb::build_bound_dfg(d.dfg, a.binding, d.datapath);
    const cvb::Schedule sched = cvb::list_schedule(bound, d.datapath);
    e.verify_ms =
        timed_median_ms(tracer, "api.verify_schedule", d.id, kLayerReps, [&] {
          return cvb::verify_schedule(bound, d.datapath, sched).size();
        });
    cvb::list_schedule_into(bound, d.datapath, {}, arena, sched_out);
    e.sched_us = 1000.0 * timed_median_ms(
                              tracer, "sched.list_schedule_into", d.id,
                              kLayerReps, [&] {
                                cvb::list_schedule_into(bound, d.datapath, {},
                                                        arena, sched_out);
                                return static_cast<std::size_t>(
                                    sched_out.latency);
                              });
    if (d.row.single_bus()) {
      cvb::testref::ref_list_schedule_into(bound, d.datapath, {}, ref_arena,
                                           sched_out);
      e.ref_us = 1000.0 * timed_median_ms(
                              tracer, "sched.reference_core", d.id, kLayerReps,
                              [&] {
                                cvb::testref::ref_list_schedule_into(
                                    bound, d.datapath, {}, ref_arena,
                                    sched_out);
                                return static_cast<std::size_t>(
                                    sched_out.latency);
                              });
    }
  }
  return out;
}

/// What a traced window measured beyond its samples.
struct TracedWindow {
  std::vector<Sample> samples;
  cvb::EvalStats eval;  ///< engine counters over the window
  /// Requests the engines served in the window: the samples, plus
  /// router_warm's direct re-sends.
  std::size_t served = 0;
  bool wire = false;
  /// router_warm: per-sample round trip of the same request sent
  /// straight to its ring owner (empty elsewhere).
  std::vector<double> direct_ms;
  /// router_warm: largest share of summed run_ms one worker served.
  double max_worker_share = 0.0;
};

void add_layers(Result& r, const std::vector<Distinct>& ds,
                const TracedWindow& w, const std::vector<Estimate>& est,
                double untraced_p50) {
  const std::size_t n = w.samples.size();
  std::vector<RequestTimes> times;
  double overhead = 0.0;
  double run = 0.0;
  double bytes = 0.0;
  double total = 0.0;
  // Over the wire a response's own eval_ms overlaps whatever else ran on
  // the same engine meanwhile, so each request gets an equal share of
  // the engine's busy time over the window instead.
  const double served = static_cast<double>(w.served);
  const double eval_share = w.eval.eval_ms / served;
  for (std::size_t i = 0; i < n; ++i) {
    const Sample& s = w.samples[i];
    const Distinct& d = ds[static_cast<std::size_t>(s.distinct)];
    const Estimate& e = est[static_cast<std::size_t>(s.distinct)];
    RequestTimes t;
    t.total = s.ms;
    t.over_wire = w.wire;
    t.remainder = d.kind == cvb::StrategyKind::kPcc ? ExecRemainder::kPcc
                  : d.effort == cvb::BindEffort::kFast
                      ? ExecRemainder::kNone
                      : ExecRemainder::kBIter;
    t.queue = s.queue_ms;
    t.run = s.run_ms;
    t.eval = w.wire ? eval_share : s.eval.eval_ms;
    t.b_init = e.b_init_ms;
    t.verify = e.verify_ms;
    t.parse = e.parse_ms;
    t.encode = e.encode_ms;
    t.hop = w.direct_ms.empty() ? 0.0 : s.ms - w.direct_ms[i];
    times.push_back(t);
    total += s.ms;
    if (w.wire) {
      overhead += s.ms - s.queue_ms - s.run_ms;
      run += s.run_ms;
      bytes += static_cast<double>(s.bytes);
    }
  }
  const double dn = static_cast<double>(n);
  const LayerSplit mean = mean_split(times);
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  std::vector<double> sched_us;
  std::vector<double> log_vs_ref;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    if (est[i].sched_us > 0.0) {
      sched_us.push_back(est[i].sched_us);
    }
    if (est[i].ref_us > 0.0 && est[i].sched_us > 0.0) {
      log_vs_ref.push_back(std::log(est[i].sched_us / est[i].ref_us));
    }
  }
  double sched_mean = 0.0;
  for (const double us : sched_us) {
    sched_mean += us / static_cast<double>(sched_us.size());
  }
  double log_mean = 0.0;
  for (const double l : log_vs_ref) {
    log_mean += l / static_cast<double>(log_vs_ref.size());
  }
  const double traced_p50 = median(sample_ms(w.samples));

  r.add("request_ms", total / dn, "ms");
  r.add("unattributed_ms", mean.unattributed, "ms");
  r.add("trace.overhead", traced_p50 / untraced_p50 - 1.0, "ratio");
  r.add("protocol.parse_us", 1000.0 * mean.parse, "us");
  r.add("protocol.encode_us", 1000.0 * mean.encode, "us");
  r.add("net.overhead_ms", overhead / dn, "ms");
  r.add("net.self_ms", mean.net, "ms");
  r.add("net.response_bytes", bytes / dn, "bytes");
  r.add("router.hop_ms", mean.hop, "ms");
  r.add("router.max_worker_share", w.max_worker_share, "ratio");
  r.add("service.queue_ms", mean.queue, "ms");
  r.add("service.run_ms", run / dn, "ms");
  r.add("api.verify_ms", mean.verify, "ms");
  r.add("b-init.ms", mean.b_init, "ms");
  r.add("b-iter.self_ms", mean.b_iter, "ms");
  r.add("pcc.self_ms", mean.pcc, "ms");
  r.add("eval.busy_ms", mean.eval, "ms");
  r.add("eval.candidates", static_cast<double>(w.eval.candidates) / served,
        "count");
  r.add("eval.misses", static_cast<double>(w.eval.cache_misses) / served,
        "count");
  r.add("eval.hit_ratio",
        ratio(static_cast<double>(w.eval.cache_hits),
              static_cast<double>(w.eval.candidates)),
        "ratio");
  r.add("eval.l1_share",
        ratio(static_cast<double>(w.eval.l1_hits),
              static_cast<double>(w.eval.candidates)),
        "ratio");
  r.add("eval.us_per_candidate",
        ratio(1000.0 * w.eval.eval_ms, static_cast<double>(w.eval.candidates)),
        "us");
  r.add("eval.contended", static_cast<double>(w.eval.cache_contended),
        "count");
  r.add("sched.schedule_us", sched_mean, "us");
  r.add("sched.vs_reference", log_vs_ref.empty() ? 0.0 : std::exp(log_mean),
        "ratio");

  std::ostringstream line;
  line << "traced request " << total / dn << " ms = layer self times "
       << mean.sum() - mean.unattributed << " ms + unattributed "
       << mean.unattributed << " ms over " << n
       << " requests (per-request means; eval counters over the "
       << w.served << " requests the engines served in the window)";
  note(line.str());
  if (std::abs(mean.sum() - total / dn) > 1e-6 * std::max(1.0, total / dn)) {
    note("FAIL layer self times do not sum to the traced request time");
    r.correct = false;
  }
}

void write_trace(cvb::Tracer& tracer, const std::string& workload) {
  const std::string path =
      std::string(kRunDir) + "/" + workload + ".trace.json";
  std::ofstream out(path);
  cvb::write_chrome_trace(out, tracer.drain(), tracer.dropped());
  note("trace written to " + path);
}

// ---- table_cold --------------------------------------------------------

std::vector<Distinct> table_cold_distincts() {
  std::vector<Distinct> ds;
  for (const Row& row : all_rows()) {
    for (const cvb::StrategyKind kind :
         {cvb::StrategyKind::kBIter, cvb::StrategyKind::kPcc}) {
      ds.push_back(make_distinct(row, kind, cvb::BindEffort::kBalanced,
                                 static_cast<int>(ds.size())));
    }
  }
  return ds;
}

struct ColdWindow {
  std::vector<Sample> samples;  ///< pass-major
  std::vector<cvb::EvalStats> per_pass;
  double seconds = 0.0;  ///< the whole window
};

ColdWindow run_cold_window(const std::vector<Distinct>& ds,
                           const std::vector<cvb::BindRequest>& requests,
                           std::uint64_t seed, int passes,
                           cvb::Tracer* tracer) {
  ColdWindow w;
  const int n = static_cast<int>(ds.size());
  const Clock::time_point start = Clock::now();
  for (int p = 0; p < passes; ++p) {
    cvb::EvalStats pass_stats;
    for (const int idx : shuffled_rounds(stream_seed(seed, p), n,
                                         static_cast<std::size_t>(n))) {
      Sample s;
      s.distinct = idx;
      const Clock::time_point t0 = Clock::now();
      cvb::BindResponse response;
      {
        cvb::ScopedSpan root(tracer, "e2e.request");
        if (root.enabled()) {
          root.attr("request", "r" + std::to_string(w.samples.size()));
          root.attr("distinct", ds[static_cast<std::size_t>(idx)].id);
        }
        cvb::ScopedSpan call(tracer, "api.run_bind_request");
        response =
            cvb::run_bind_request(requests[static_cast<std::size_t>(idx)], {});
        if (call.enabled()) {
          call.attr("request", "r" + std::to_string(w.samples.size()));
          call.attr("eval_ms", response.eval_stats.eval_ms);
          call.attr("candidates", response.eval_stats.candidates);
        }
      }
      s.ms = ms_between(t0, Clock::now());
      s.ok = response.status == cvb::BindStatus::kOk;
      s.error = s.ok ? "" : std::string(cvb::to_string(response.status)) +
                                ": " + response.error;
      s.binding = std::move(response.binding);
      s.latency = response.latency;
      s.moves = response.moves;
      s.eval = response.eval_stats;
      pass_stats.merge(response.eval_stats);
      w.samples.push_back(std::move(s));
    }
    w.per_pass.push_back(pass_stats);
  }
  w.seconds = ms_between(start, Clock::now()) / 1000.0;
  return w;
}

/// The determinism guard: every pass must report the same eval counters.
bool passes_agree(const std::vector<cvb::EvalStats>& passes) {
  const auto key = [](const cvb::EvalStats& s) {
    return std::vector<long long>{s.candidates, s.cache_hits, s.l1_hits,
                                  s.batch_dedup, s.cache_misses};
  };
  for (const cvb::EvalStats& pass : passes) {
    if (key(pass) != key(passes.front())) {
      return false;
    }
  }
  return true;
}

Result run_table_cold(const Options& opt, Clock::time_point process_start) {
  Result r;
  std::vector<double> setups;
  std::vector<Distinct> ds;
  std::vector<cvb::BindRequest> requests;
  for (int i = 0; i < kSetups; ++i) {
    const Clock::time_point t0 = i == 0 ? process_start : Clock::now();
    ds = table_cold_distincts();
    requests.clear();
    for (const Distinct& d : ds) {
      requests.push_back(d.bind_request());
    }
    // Warm-up: the first Table 1 row (DCT-DIF on [1,1|1,1]) under both
    // strategies, which runs every layer of the timed requests.
    for (const Distinct& d : ds) {
      if (d.row.kernel == "DCT-DIF" && d.row.clusters == "[1,1|1,1]") {
        (void)cvb::run_bind_request(d.bind_request(), {});
      }
    }
    setups.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  // A traced run times two windows, so each is half as long.
  const int passes =
      std::max(2, opt.seconds / kPassSeconds / (opt.trace ? 2 : 1));
  std::vector<Answer> answers(ds.size());

  const std::pair<double, double> cpu_before = host_cpu_ticks();
  ColdWindow w = run_cold_window(ds, requests, opt.seed, passes, nullptr);
  note_steal(cpu_before);
  tally(r, check_samples(ds, w.samples, answers), w.samples.size());
  const bool agree = passes_agree(w.per_pass);
  {
    const cvb::EvalStats& p = w.per_pass.front();
    std::ostringstream line;
    line << passes << " passes of " << ds.size()
         << " requests; eval counters per pass: candidates " << p.candidates
         << ", hits " << p.cache_hits << " (L1 " << p.l1_hits << "), misses "
         << p.cache_misses << " vs cache capacity "
         << cvb::EvalEngineOptions{}.cache_capacity << "; passes "
         << (agree ? "agree" : "DIFFER");
    note(line.str());
    // Per row L/M, comparable with the PCC and B-ITER columns of
    // bench/table1 and bench/table2, and their sums over those 37 rows.
    std::map<std::string, std::pair<long long, long long>> sums;
    for (std::size_t i = 0; i + 1 < ds.size(); i += 2) {
      const Answer& iter = answers[i];
      const Answer& pcc = answers[i + 1];
      note(ds[i].row.label() + ": b-iter " + std::to_string(iter.latency) +
           "/" + std::to_string(iter.moves) + ", pcc " +
           std::to_string(pcc.latency) + "/" + std::to_string(pcc.moves));
      if (ds[i].row.single_bus()) {
        for (const Answer* a : {&iter, &pcc}) {
          auto& [l, m] = sums[a == &iter ? "b-iter" : "pcc"];
          l += a->latency;
          m += a->moves;
        }
      }
    }
    for (const auto& [kind, lm] : sums) {
      note(kind + " L/M summed over the 37 Table 1 and Table 2 rows: " +
           std::to_string(lm.first) + "/" + std::to_string(lm.second));
    }
  }
  if (!agree) {
    note("FAIL determinism guard: eval counters differ between passes");
    r.correct = false;
  }
  if (!opt.trace) {
    add_end_to_end(r, w.samples, w.seconds, answers, median(setups));
    return r;
  }

  const double untraced_p50 = median(sample_ms(w.samples));
  cvb::Tracer tracer;
  ColdWindow traced = run_cold_window(ds, requests, opt.seed, passes, &tracer);
  tally(r, check_samples(ds, traced.samples, answers), traced.samples.size());
  if (!passes_agree(traced.per_pass) ||
      !passes_agree({w.per_pass.front(), traced.per_pass.front()})) {
    note("FAIL determinism guard: traced passes' eval counters differ");
    r.correct = false;
  }
  TracedWindow tw;
  tw.samples = std::move(traced.samples);
  tw.served = tw.samples.size();
  for (const Sample& s : tw.samples) {
    tw.eval.merge(s.eval);
  }
  const std::vector<Estimate> est = measure_layers(ds, answers, false, tracer);
  add_layers(r, ds, tw, est, untraced_p50);
  write_trace(tracer, "table_cold");
  return r;
}

// ---- router_warm -------------------------------------------------------

/// router_warm's rows: Table 1 rows in the order of
/// shuffled_rounds(1, 33, 33), keeping a row while the summed cold
/// b-iter cache footprint stayed under half the 65,536-entry cache, up
/// to eight rows (28,423 entries at the time of the draw). Fixed, so
/// every run seed sends the same rows; not re-picked to balance the
/// hash ring.
std::vector<Distinct> router_warm_distincts() {
  const std::vector<std::pair<std::string, std::string>> picks = {
      {"DCT-DIT", "[2,1|2,1]"},     {"DCT-DIT", "[3,1|2,2|1,3]"},
      {"DCT-LEE", "[1,1|1,1]"},     {"EWF", "[1,1|1,1]"},
      {"DCT-DIT", "[2,1|2,1|1,1]"}, {"EWF", "[2,2|2,1|1,1]"},
      {"FFT", "[2,1|2,1]"},         {"FFT", "[1,1|1,1|1,1|1,1]"},
  };
  std::vector<Distinct> ds;
  for (const auto& [kernel, clusters] : picks) {
    ds.push_back(make_distinct(Row{kernel, clusters, 2, 1, ""},
                               cvb::StrategyKind::kBIter,
                               cvb::BindEffort::kBalanced,
                               static_cast<int>(ds.size())));
  }
  return ds;
}

/// One set-up of router_warm. Members are destroyed clients first, then
/// the router, then the workers.
struct WireSetup {
  std::vector<Distinct> ds;
  std::vector<std::string> worker_paths;
  std::vector<std::unique_ptr<Worker>> workers;
  std::unique_ptr<RouterHost> router;
  std::vector<int> owner;  ///< ring owner of each distinct request
  std::vector<std::unique_ptr<Client>> clients;  ///< [0] ndjson, [1] binary
  std::vector<long long> footprint;  ///< cold cache entries per distinct
};

Codec codec_of(int connection) {
  return connection == 0 ? Codec::kNdjson : Codec::kBinary;
}

/// Sends every distinct request once on `client`, untimed; returns the
/// number of responses that were not ok.
int warm_up(Client& client, const std::vector<Distinct>& ds) {
  int bad = 0;
  for (const Distinct& d : ds) {
    Sample s;
    s.raw = client.call(client.encode(d.json), &s.bytes);
    parse_response(s, d);
    bad += s.ok ? 0 : 1;
  }
  return bad;
}

std::unique_ptr<WireSetup> set_up_wire(int* warm_failures) {
  auto setup = std::make_unique<WireSetup>();
  WireSetup& w = *setup;
  std::filesystem::create_directories(kRunDir);
  const std::string dir = std::string(kRunDir) + "/";
  w.ds = router_warm_distincts();
  w.worker_paths = {dir + "w0.sock", dir + "w1.sock"};
  for (const std::string& path : w.worker_paths) {
    w.workers.push_back(std::make_unique<Worker>(path));
  }
  // Socket paths are relative, so ring placement does not depend on
  // where the checkout lives.
  const cvb::net::HashRing ring(w.worker_paths,
                                cvb::net::RouterOptions{}.vnodes);
  for (const Distinct& d : w.ds) {
    w.owner.push_back(ring.pick(cvb::net::request_route_key(d.json), {}));
  }
  // Fill each row's owner cache directly (a cold b-iter request can
  // outlast the router's hedge budget and be computed twice).
  w.footprint.assign(w.ds.size(), 0);
  std::vector<std::unique_ptr<Client>> fillers;
  for (const std::string& path : w.worker_paths) {
    fillers.push_back(std::make_unique<Client>(path, Codec::kBinary));
  }
  for (std::size_t i = 0; i < w.ds.size(); ++i) {
    cvb::Service& service =
        w.workers[static_cast<std::size_t>(w.owner[i])]->service();
    const long long before = service.engine().stats().cache_misses;
    Sample s;
    Client& filler = *fillers[static_cast<std::size_t>(w.owner[i])];
    s.raw = filler.call(filler.encode(w.ds[i].json), &s.bytes);
    parse_response(s, w.ds[i]);
    *warm_failures += s.ok ? 0 : 1;
    w.footprint[i] = service.engine().stats().cache_misses - before;
  }
  w.router =
      std::make_unique<RouterHost>(dir + "router.sock", w.worker_paths);
  for (int c = 0; c < kConnections; ++c) {
    w.clients.push_back(
        std::make_unique<Client>(dir + "router.sock", codec_of(c)));
    *warm_failures += warm_up(*w.clients.back(), w.ds);
  }
  return setup;
}

cvb::EvalStats engine_stats(WireSetup& w) {
  cvb::EvalStats total;
  for (const std::unique_ptr<Worker>& worker : w.workers) {
    total.merge(worker->service().engine().stats());
  }
  return total;
}

/// Seconds from the start of a wire window to its last response.
double window_seconds(const std::vector<Sample>& samples) {
  double end_ms = 0.0;
  for (const Sample& s : samples) {
    end_ms = std::max(end_ms, s.start_ms + s.ms);
  }
  return end_ms / 1000.0;
}

/// Runs one closed-loop window on this thread: request k of `seq` goes
/// out on connection k % kConnections, so the codecs take turns, and
/// the next request leaves only once the response is complete.
/// `route(c, distinct)` is the client a request travels by. With
/// `direct`, each request is then sent again by `direct(c, distinct)`
/// and timed apart, into `direct_out`. Returns the samples in send
/// order with their responses parsed; once a connection breaks, the
/// requests not sent count as failed.
std::vector<Sample> run_wire_window(
    const WireSetup& w, const std::vector<int>& seq,
    const std::function<Client&(int, int)>& route, cvb::Tracer* tracer,
    const std::function<Client&(int, int)>* direct = nullptr,
    std::vector<Sample>* direct_out = nullptr) {
  std::vector<std::vector<std::string>> encoded(kConnections);
  for (int c = 0; c < kConnections; ++c) {
    for (const Distinct& d : w.ds) {
      encoded[static_cast<std::size_t>(c)].push_back(
          w.clients[static_cast<std::size_t>(c)]->encode(d.json));
    }
  }
  std::vector<Sample> window;
  window.reserve(seq.size());
  std::string error;
  const Clock::time_point start = Clock::now();
  try {
    for (const int idx : seq) {
      const int c = static_cast<int>(window.size() % kConnections);
      const std::string& request = encoded[static_cast<std::size_t>(c)]
                                          [static_cast<std::size_t>(idx)];
      Sample s;
      s.distinct = idx;
      const Clock::time_point t0 = Clock::now();
      s.start_ms = ms_between(start, t0);
      cvb::ScopedSpan root(tracer, "e2e.request");
      const std::string id =
          root.enabled() ? "r" + std::to_string(window.size()) : std::string();
      {
        cvb::ScopedSpan trip(tracer, "net.round_trip");
        s.raw = route(c, idx).call(request, &s.bytes);
        if (root.enabled()) {
          root.attr("request", id);
          root.attr("distinct", w.ds[static_cast<std::size_t>(idx)].id);
          root.attr("codec", to_string(codec_of(c)));
          trip.attr("request", id);
          trip.attr("bytes", s.bytes);
        }
      }
      s.ms = ms_between(t0, Clock::now());
      window.push_back(std::move(s));
      if (direct != nullptr) {
        Sample again;
        again.distinct = idx;
        cvb::ScopedSpan trip(tracer, "net.direct_round_trip");
        const Clock::time_point t1 = Clock::now();
        again.raw = (*direct)(c, idx).call(request, &again.bytes);
        again.ms = ms_between(t1, Clock::now());
        if (trip.enabled()) {
          trip.attr("request", id);
        }
        direct_out->push_back(std::move(again));
      }
    }
  } catch (const std::exception& e) {
    error = e.what();
    note("FAIL connection broke: " + error);
  }
  for (std::vector<Sample>* samples : {&window, direct_out}) {
    if (samples == nullptr) {
      continue;
    }
    for (std::size_t i = samples->size(); i < seq.size(); ++i) {
      Sample s;
      s.distinct = seq[i];
      s.raw = "connection failed: " + error;
      samples->push_back(std::move(s));
    }
    for (Sample& s : *samples) {
      parse_response(s, w.ds[static_cast<std::size_t>(s.distinct)]);
    }
  }
  return window;
}

Result run_router_warm(const Options& opt, Clock::time_point process_start) {
  Result r;
  std::vector<double> setups;
  std::unique_ptr<WireSetup> setup;
  int warm_failures = 0;
  for (int i = 0; i < kSetups; ++i) {
    // The previous set-up goes down untimed.
    setup.reset();
    const Clock::time_point t0 = i == 0 ? process_start : Clock::now();
    setup = set_up_wire(&warm_failures);
    setups.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  WireSetup& w = *setup;
  if (warm_failures > 0) {
    note("FAIL " + std::to_string(warm_failures) +
         " set-up responses were not ok");
    r.correct = false;
  }
  {
    std::vector<long long> per_worker(w.workers.size(), 0);
    std::vector<int> rows(w.workers.size(), 0);
    for (std::size_t i = 0; i < w.ds.size(); ++i) {
      per_worker[static_cast<std::size_t>(w.owner[i])] += w.footprint[i];
      ++rows[static_cast<std::size_t>(w.owner[i])];
    }
    std::ostringstream line;
    line << "cold cache footprint per worker (entries):";
    for (std::size_t k = 0; k < per_worker.size(); ++k) {
      line << " w" << k << " " << per_worker[k] << " (" << rows[k]
           << " rows)";
    }
    line << " vs capacity " << cvb::EvalEngineOptions{}.cache_capacity;
    note(line.str());
  }

  // Whole rounds, so every distinct request is sent equally often; at
  // least one. A traced run times two windows, so each is half as long.
  const std::size_t n = w.ds.size();
  const std::size_t count =
      n * std::max<std::size_t>(1, static_cast<std::size_t>(opt.seconds) *
                                       kRouterWarmPerSecond /
                                       (opt.trace ? 2 : 1) / n);
  const std::vector<int> seq =
      shuffled_rounds(stream_seed(opt.seed, 0), static_cast<int>(n), count);
  const std::function<Client&(int, int)> via_entry = [&](int c,
                                                         int) -> Client& {
    return *w.clients[static_cast<std::size_t>(c)];
  };
  std::vector<Answer> answers(w.ds.size());

  const cvb::EvalStats before = engine_stats(w);
  const std::pair<double, double> cpu_before = host_cpu_ticks();
  std::vector<Sample> window = run_wire_window(w, seq, via_entry, nullptr);
  note_steal(cpu_before);
  const cvb::EvalStats untraced_eval = engine_stats(w).since(before);
  tally(r, check_samples(w.ds, window, answers), window.size());
  {
    double run = 0.0;
    double total = 0.0;
    for (const Sample& s : window) {
      run += s.run_ms;
      total += s.ms;
    }
    std::ostringstream line;
    line << "run_ms is " << 100.0 * run / total
         << "% of the summed round trips; eval hit ratio "
         << (untraced_eval.candidates > 0
                 ? static_cast<double>(untraced_eval.cache_hits) /
                       static_cast<double>(untraced_eval.candidates)
                 : 0.0)
         << " over " << untraced_eval.candidates << " candidates";
    note(line.str());
  }
  if (!opt.trace) {
    add_end_to_end(r, window, window_seconds(window), answers,
                   median(setups));
    return r;
  }

  const double untraced_p50 = median(sample_ms(window));
  cvb::Tracer tracer;
  TracedWindow tw;
  tw.wire = true;
  // Each request is also sent straight to its ring owner on a
  // connection of the same codec right after the routed one, so
  // router.hop_ms compares the two under the same host conditions. The
  // re-sends share the window's load, so trace.overhead includes their
  // effect as well as the spans'.
  std::vector<std::vector<std::unique_ptr<Client>>> owners(kConnections);
  for (int c = 0; c < kConnections; ++c) {
    for (const std::string& path : w.worker_paths) {
      owners[static_cast<std::size_t>(c)].push_back(
          std::make_unique<Client>(path, codec_of(c)));
    }
  }
  const std::function<Client&(int, int)> via_owner = [&](int c,
                                                         int idx) -> Client& {
    return *owners[static_cast<std::size_t>(c)][static_cast<std::size_t>(
        w.owner[static_cast<std::size_t>(idx)])];
  };
  std::vector<Sample> direct;
  const cvb::EvalStats traced_before = engine_stats(w);
  std::vector<Sample> traced =
      run_wire_window(w, seq, via_entry, &tracer, &via_owner, &direct);
  tw.eval = engine_stats(w).since(traced_before);
  tally(r, check_samples(w.ds, traced, answers), traced.size());
  tally(r, check_samples(w.ds, direct, answers), direct.size());
  for (const Sample& s : direct) {
    tw.direct_ms.push_back(s.ms);
  }
  std::vector<double> run_by_worker(w.workers.size(), 0.0);
  double run_total = 0.0;
  for (const Sample& s : traced) {
    run_by_worker[static_cast<std::size_t>(
        w.owner[static_cast<std::size_t>(s.distinct)])] += s.run_ms;
    run_total += s.run_ms;
  }
  tw.max_worker_share =
      *std::max_element(run_by_worker.begin(), run_by_worker.end()) /
      run_total;
  tw.served = traced.size() + direct.size();
  tw.samples = std::move(traced);
  const std::vector<Estimate> est =
      measure_layers(w.ds, answers, true, tracer);
  add_layers(r, w.ds, tw, est, untraced_p50);
  write_trace(tracer, "router_warm");
  return r;
}

// ---- command line ------------------------------------------------------

/// Ends the process (exit 3, no result) if the run outlives its budget.
class Watchdog {
 public:
  explicit Watchdog(int seconds)
      : thread_([this, seconds] {
          std::unique_lock<std::mutex> lock(mutex_);
          if (!cv_.wait_for(lock, std::chrono::seconds(seconds),
                            [this] { return done_; })) {
            std::cerr << "e2ebench: run exceeded " << seconds << " s\n";
            std::_Exit(3);
          }
        }) {}

  ~Watchdog() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      opt.seconds = std::stoi(value);
      if (opt.seconds < 1) {
        throw std::invalid_argument("--seconds must be >= 1");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      opt.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  return opt;
}

Result run_workload(const std::string& name, const Options& opt,
                    Clock::time_point process_start) {
  std::cout << "workload " << name << " (seed " << opt.seed << ", "
            << opt.seconds << " s, trace " << (opt.trace ? 1 : 0) << ")\n";
  Result r;
  if (name == "table_cold") {
    r = run_table_cold(opt, process_start);
  } else if (name == "router_warm") {
    r = run_router_warm(opt, process_start);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  for (const Metric& m : r.metrics) {
    std::ostringstream line;
    line << m.name << " = " << m.value << " " << m.unit;
    note(line.str());
  }
  return r;
}

cvb::JsonValue result_json(bool correct, long long attempted,
                           long long failed, const std::vector<Metric>& ms) {
  cvb::JsonValue metrics = cvb::JsonValue::object();
  for (const Metric& m : ms) {
    cvb::JsonValue v = cvb::JsonValue::object();
    v.set("value", m.value);
    v.set("unit", m.unit);
    metrics.set(m.name, std::move(v));
  }
  cvb::JsonValue out = cvb::JsonValue::object();
  out.set("correct", correct);
  out.set("attempted", attempted);
  out.set("failed", failed);
  out.set("metrics", std::move(metrics));
  return out;
}

int run(int argc, char** argv, Clock::time_point process_start) {
  Options opt;
  try {
    opt = parse_options(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << e.what()
              << "\nusage: e2ebench --workload "
                 "table_cold|router_warm|all --seed N "
                 "--seconds S --trace 0|1\n";
    return 2;
  }
  const int cpu = pin_to_one_cpu();
  if (cpu < 0) {
    std::cerr << "e2ebench: warning: running unpinned, sched_setaffinity: "
              << std::strerror(errno) << '\n';
  } else {
    std::cout << "process pinned to CPU " << cpu << '\n';
  }
  // One heap arena for every thread: on one CPU more arenas allocate
  // nothing in parallel, and which arena each server thread drew from
  // swung peak_rss_mb by 20% between runs.
  if (::mallopt(M_ARENA_MAX, 1) != 1) {
    std::cerr << "e2ebench: warning: mallopt(M_ARENA_MAX, 1) failed\n";
  }
  const Watchdog watchdog(kWatchdogSeconds);
  const std::vector<std::string> names =
      opt.workload == "all"
          ? std::vector<std::string>{"table_cold", "router_warm"}
          : std::vector<std::string>{opt.workload};
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  std::vector<Metric> metrics;
  for (const std::string& name : names) {
    const Result r = run_workload(name, opt, process_start);
    correct = correct && r.correct;
    attempted += r.attempted;
    failed += r.failed;
    for (const Metric& m : r.metrics) {
      metrics.push_back(
          {names.size() > 1 ? name + "." + m.name : m.name, m.value, m.unit});
    }
  }
  std::cout << result_json(correct, attempted, failed, metrics).dump() << '\n'
            << std::flush;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  const auto process_start = std::chrono::steady_clock::now();
  try {
    return e2e::run(argc, argv, process_start);
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << e.what() << '\n';
    return 1;
  }
}
