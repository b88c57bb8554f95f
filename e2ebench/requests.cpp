#include "requests.hpp"

#include <sstream>
#include <utility>

#include "kernels/kernels.hpp"
#include "machine/machine_file.hpp"
#include "machine/parser.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"

namespace e2e {

std::string Row::label() const {
  std::string out = kernel + " " + clusters;
  if (!single_bus()) {
    return out + " " + topology;
  }
  if (buses != 2 || move_latency != 1) {
    out += " NB=" + std::to_string(buses) +
           " lat=" + std::to_string(move_latency);
  }
  return out;
}

std::vector<Row> table1_rows() {
  // Exactly the configurations of bench/table1.cpp, in the paper's order.
  const std::vector<std::pair<std::string, std::vector<std::string>>> table = {
      {"DCT-DIF", {"[1,1|1,1]", "[2,1|2,1]", "[2,1|1,1]", "[1,1|1,1|1,1]"}},
      {"DCT-LEE",
       {"[1,1|1,1]", "[2,1|2,1]", "[2,1|1,1]", "[2,2|2,1]", "[1,1|1,1|1,1]"}},
      {"DCT-DIT",
       {"[1,1|1,1]", "[2,1|2,1]", "[1,1|1,1|1,1]", "[2,1|2,1|1,1]",
        "[3,1|2,2|1,3]", "[1,1|1,1|1,1|1,1]"}},
      {"DCT-DIT-2",
       {"[1,1|1,1]", "[2,1|2,1]", "[1,1|1,1|1,1]", "[3,1|2,2|1,3]",
        "[1,1|1,1|1,1|1,1]"}},
      {"FFT",
       {"[1,1|1,1]", "[2,1|2,1]", "[1,1|1,1|1,1]", "[2,1|2,1|1,2]",
        "[3,2|3,1|1,3]", "[1,1|1,1|1,1|1,1]"}},
      {"EWF",
       {"[1,1|1,1]", "[2,1|2,1]", "[2,1|1,1]", "[1,1|1,1|1,1]",
        "[2,2|2,1|1,1]"}},
      {"ARF", {"[1,1|1,1]", "[1,2|1,2]"}},
  };
  std::vector<Row> rows;
  for (const auto& [kernel, datapaths] : table) {
    for (const std::string& clusters : datapaths) {
      rows.push_back(Row{kernel, clusters, 2, 1, ""});
    }
  }
  return rows;
}

std::vector<Row> table2_rows() {
  // The paper's row order: (N_B, lat(move)) = (1,1), (2,1), (1,2), (2,2).
  std::vector<Row> rows;
  for (const auto& [buses, move_latency] :
       {std::pair{1, 1}, std::pair{2, 1}, std::pair{1, 2}, std::pair{2, 2}}) {
    rows.push_back(
        Row{"FFT", "[2,2|2,1|2,2|3,1|1,1]", buses, move_latency, ""});
  }
  return rows;
}

std::vector<Row> fabric_rows() {
  std::vector<Row> rows;
  for (const char* kernel : {"FFT", "DCT-DIT"}) {
    for (const char* topology : {"ring", "mesh:2x2"}) {
      rows.push_back(Row{kernel, "[1,1|1,1|1,1|1,1]", 2, 1, topology});
    }
  }
  return rows;
}

std::vector<Row> all_rows() {
  std::vector<Row> rows = table1_rows();
  for (std::vector<Row> more : {table2_rows(), fabric_rows()}) {
    rows.insert(rows.end(), more.begin(), more.end());
  }
  return rows;
}

std::string machine_text(const Row& row) {
  return "clusters " + row.clusters + "\nbuses " + std::to_string(row.buses) +
         "\ntopology " + row.topology + "\n";
}

std::string Distinct::strategy_label() const {
  return std::string(cvb::to_string(kind)) + "@" + cvb::to_string(effort);
}

cvb::BindRequest Distinct::bind_request() const {
  cvb::BindRequest request;
  request.dfg = dfg;
  request.datapath = datapath;
  request.strategy.kind = kind;
  request.strategy.effort = effort;
  request.strategy_explicit = true;
  return request;
}

Distinct make_distinct(const Row& row, cvb::StrategyKind kind,
                       cvb::BindEffort effort, int index) {
  Distinct d;
  d.row = row;
  d.kind = kind;
  d.effort = effort;
  d.id = "d" + std::to_string(index);
  d.dfg = cvb::benchmark_by_name(row.kernel).dfg;

  cvb::JsonValue json = cvb::JsonValue::object();
  json.set("id", d.id);
  json.set("kernel", row.kernel);
  if (row.single_bus()) {
    json.set("datapath", row.clusters);
    json.set("buses", row.buses);
    json.set("move_latency", row.move_latency);
    d.datapath = cvb::parse_datapath(row.clusters, row.buses, row.move_latency);
  } else {
    json.set("machine", machine_text(row));
    std::istringstream in(machine_text(row));
    d.datapath = cvb::parse_machine_file(in).datapath;
  }
  cvb::JsonValue strategy = cvb::JsonValue::object();
  strategy.set("kind", cvb::to_string(kind));
  strategy.set("effort", cvb::to_string(effort));
  json.set("strategy", std::move(strategy));
  d.json = json.dump();
  return d;
}

std::vector<int> shuffled_rounds(std::uint64_t seed, int n,
                                 std::size_t count) {
  cvb::Rng rng(seed);
  std::vector<int> out;
  out.reserve(count);
  std::vector<int> round(static_cast<std::size_t>(n));
  while (out.size() < count) {
    for (int i = 0; i < n; ++i) {
      round[static_cast<std::size_t>(i)] = i;
    }
    // Fisher-Yates with the repo's portable generator (std::shuffle's
    // sequence is library-defined).
    for (int i = n - 1; i > 0; --i) {
      std::swap(round[static_cast<std::size_t>(i)],
                round[static_cast<std::size_t>(rng.uniform_int(0, i))]);
    }
    for (int i = 0; i < n && out.size() < count; ++i) {
      out.push_back(round[static_cast<std::size_t>(i)]);
    }
  }
  return out;
}

std::uint64_t stream_seed(std::uint64_t seed, int stream) {
  cvb::Rng rng(seed ^ (0x9e3779b97f4a7c15ULL *
                       static_cast<std::uint64_t>(stream + 1)));
  return rng.next_u64();
}

}  // namespace e2e
