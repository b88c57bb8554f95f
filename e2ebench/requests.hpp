// The benchmark's inputs: the paper's table rows, the requests built
// from them, and the seeded request sequences the workloads send.
//
// A row is one (kernel, machine) experiment. Single-bus rows travel as
// the protocol's "datapath"/"buses"/"move_latency" fields; fabric rows
// travel as "machine" text with a topology line. In-process requests
// parse the very same spellings, so every entry point binds identical
// inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/request.hpp"
#include "bind/effort.hpp"
#include "graph/dfg.hpp"
#include "machine/datapath.hpp"
#include "machine/parser.hpp"
#include "service/status.hpp"

namespace e2e {

/// One paper-table experiment.
struct Row {
  std::string kernel;    ///< kernel registry name ("FFT", "DCT-DIT", ...)
  std::string clusters;  ///< paper notation, e.g. "[2,1|1,1]"
  int buses = 2;
  int move_latency = 1;
  std::string topology;  ///< "" = the single shared bus, else a fabric spec

  [[nodiscard]] bool single_bus() const { return topology.empty(); }
  [[nodiscard]] std::string label() const;
};

/// The 33 rows of Table 1, in the paper's order.
[[nodiscard]] std::vector<Row> table1_rows();
/// The 4 rows of Table 2 (FFT on [2,2|2,1|2,2|3,1|1,1], N_B x lat(move)).
[[nodiscard]] std::vector<Row> table2_rows();
/// FFT and DCT-DIT on four single-FU-pair clusters over `ring` and
/// `mesh:2x2`, where some transfers take two hops (chain moves).
[[nodiscard]] std::vector<Row> fabric_rows();
/// table1_rows() + table2_rows() + fabric_rows().
[[nodiscard]] std::vector<Row> all_rows();

/// Machine-file text of a fabric row ("clusters", "buses", "topology").
[[nodiscard]] std::string machine_text(const Row& row);

/// One distinct request of a workload: a row bound by one strategy,
/// with its inputs materialized once at set-up.
struct Distinct {
  Row row;
  cvb::StrategyKind kind = cvb::StrategyKind::kBIter;
  cvb::BindEffort effort = cvb::BindEffort::kBalanced;
  std::string id;    ///< "d<index>", echoed by the service
  std::string json;  ///< the wire request object (one line, no newline)
  cvb::Dfg dfg;
  cvb::Datapath datapath = cvb::parse_datapath("[1,1|1,1]");

  /// "<kind>@<effort>": the strategy half of the (row, strategy) key.
  [[nodiscard]] std::string strategy_label() const;
  /// True when the request runs the B-INIT sweep (b-iter at any effort).
  [[nodiscard]] bool runs_b_init() const {
    return kind == cvb::StrategyKind::kBIter;
  }
  /// The in-process request (no id, no shared engine: cvbind's path).
  [[nodiscard]] cvb::BindRequest bind_request() const;
};

/// Builds the distinct request for `row` x (`kind`, `effort`); the
/// index names it on the wire.
[[nodiscard]] Distinct make_distinct(const Row& row, cvb::StrategyKind kind,
                                     cvb::BindEffort effort, int index);

/// `count` indices into [0, n), drawn as consecutive rounds that are
/// each a seeded permutation of [0, n): a uniform draw in which every
/// index appears once per round. Equal seeds give equal sequences.
[[nodiscard]] std::vector<int> shuffled_rounds(std::uint64_t seed, int n,
                                               std::size_t count);

/// Derives the independent stream seed of one client (or pass) from the
/// run seed.
[[nodiscard]] std::uint64_t stream_seed(std::uint64_t seed, int stream);

}  // namespace e2e
