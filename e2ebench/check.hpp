// Output check independent of the binder: an answer is rebuilt from its
// binding alone and judged by code the binder does not use to decide.
#pragma once

#include <string>

#include "bind/binding.hpp"
#include "graph/dfg.hpp"
#include "machine/datapath.hpp"

namespace e2e {

/// Checks one answer (binding plus its claimed L and M) for `dfg` on
/// `dp`. Rebuilds the bound graph with build_bound_dfg, then:
///  * single-bus rows: re-schedules it with the frozen reference core
///    (tests/reference_scheduler.hpp), whose L and M must equal the
///    claim, and checks that schedule;
///  * fabric rows (the reference core predates topologies): schedules
///    it with list_schedule, whose L and M must equal the claim;
/// and on every row requires verify_schedule to pass and
/// check_semantics to find no mismatch. Returns "" when the answer
/// passes, else the first failure.
[[nodiscard]] std::string check_answer(const cvb::Dfg& dfg,
                                       const cvb::Datapath& dp,
                                       bool single_bus,
                                       const cvb::Binding& binding,
                                       int latency, int moves);

}  // namespace e2e
