#include "check.hpp"

#include <cstdint>
#include <exception>
#include <vector>

#include "bind/bound_dfg.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/verifier.hpp"
#include "sim/executor.hpp"
#include "tests/reference_scheduler.hpp"

namespace e2e {

std::string check_answer(const cvb::Dfg& dfg, const cvb::Datapath& dp,
                         bool single_bus, const cvb::Binding& binding,
                         int latency, int moves) {
  if (static_cast<int>(binding.size()) != dfg.num_ops()) {
    return "binding has " + std::to_string(binding.size()) + " entries for " +
           std::to_string(dfg.num_ops()) + " operations";
  }
  try {
    const cvb::BoundDfg bound = cvb::build_bound_dfg(dfg, binding, dp);
    const cvb::Schedule sched = single_bus
                                    ? cvb::testref::ref_list_schedule(bound, dp)
                                    : cvb::list_schedule(bound, dp);
    if (sched.latency != latency || sched.num_moves != moves) {
      return std::string(single_bus ? "reference core" : "list scheduler") +
             " gives L/M " + std::to_string(sched.latency) + "/" +
             std::to_string(sched.num_moves) + ", answer claims " +
             std::to_string(latency) + "/" + std::to_string(moves);
    }
    if (std::string err = cvb::verify_schedule(bound, dp, sched);
        !err.empty()) {
      return "verify_schedule: " + err;
    }
    const std::vector<std::int64_t> inputs = {3, -7, 11, 5, 2, -13, 17, 1};
    if (std::string err =
            cvb::check_semantics(dfg, bound, dp, sched, inputs);
        !err.empty()) {
      return "check_semantics: " + err;
    }
  } catch (const std::exception& e) {
    return std::string("rebuilding the answer threw: ") + e.what();
  }
  return "";
}

}  // namespace e2e
