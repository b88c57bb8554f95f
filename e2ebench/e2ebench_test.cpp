// Tests of the benchmark's own arithmetic: the tail_ms percentile rule,
// self-time attribution, and seeded request sequences.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "requests.hpp"
#include "stats.hpp"

namespace e2e {
namespace {

TEST(TailRule, PicksHighestPercentileWithTenSamplesBeyond) {
  // table_cold's two passes of 82 requests: p95 would leave only 8.
  const TailRule cold = tail_rule(164);
  EXPECT_DOUBLE_EQ(cold.pct, 90.0);
  EXPECT_EQ(cold.samples, 164u);
  EXPECT_EQ(cold.beyond, 16u);
  EXPECT_EQ(samples_beyond(164, 9500), 8u);

  EXPECT_DOUBLE_EQ(tail_rule(1000).pct, 99.0);
  EXPECT_EQ(tail_rule(1000).beyond, 10u);
  EXPECT_DOUBLE_EQ(tail_rule(999).pct, 95.0);
  EXPECT_DOUBLE_EQ(tail_rule(2000).pct, 99.5);
  EXPECT_DOUBLE_EQ(tail_rule(10000).pct, 99.9);
  EXPECT_EQ(tail_rule(10000).beyond, 10u);
  EXPECT_DOUBLE_EQ(tail_rule(20).pct, 50.0);
  EXPECT_THROW((void)tail_rule(19), std::invalid_argument);
}

TEST(TailRule, BeyondCountIsExactForFractionalPercentiles) {
  // 10000 * 99.9% is exactly 9990 ranks: ten left, not nine.
  EXPECT_EQ(samples_beyond(10000, 9990), 10u);
  EXPECT_EQ(samples_beyond(20000, 9995), 10u);
  EXPECT_EQ(samples_beyond(1001, 9900), 10u);  // ceil(990.99) = 991
}

TEST(Percentile, InterpolatesBetweenRanks) {
  std::vector<double> v(101);
  std::iota(v.begin(), v.end(), 0.0);
  std::reverse(v.begin(), v.end());
  EXPECT_DOUBLE_EQ(median(v), 50.0);
  EXPECT_DOUBLE_EQ(percentile(v, 90.0), 90.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0}, 50.0), 1.5);
  EXPECT_THROW((void)percentile({}, 50.0), std::invalid_argument);
}

TEST(Attribute, WireFastRequestLeavesExecRemainderUnattributed) {
  RequestTimes t;
  t.total = 2.0;
  t.over_wire = true;
  t.remainder = ExecRemainder::kNone;
  t.queue = 0.1;
  t.run = 0.7;
  t.b_init = 0.5;
  t.verify = 0.05;
  t.parse = 0.02;
  t.encode = 0.03;
  const LayerSplit s = attribute(t);
  EXPECT_DOUBLE_EQ(s.net, 2.0 - 0.1 - 0.7 - 0.02 - 0.03);
  EXPECT_DOUBLE_EQ(s.b_iter, 0.0);
  EXPECT_DOUBLE_EQ(s.pcc, 0.0);
  EXPECT_NEAR(s.unattributed, 0.7 - 0.5 - 0.05, 1e-12);
  EXPECT_NEAR(s.sum(), t.total, 1e-12);
}

TEST(Attribute, BIterAndPccTakeTheirExecRemainder) {
  RequestTimes b;
  b.total = 10.0;
  b.remainder = ExecRemainder::kBIter;
  b.eval = 6.0;
  b.b_init = 1.0;
  b.verify = 0.5;
  const LayerSplit bs = attribute(b);
  EXPECT_DOUBLE_EQ(bs.b_iter, 2.5);
  EXPECT_DOUBLE_EQ(bs.b_init, 1.0);
  EXPECT_DOUBLE_EQ(bs.net, 0.0);
  EXPECT_DOUBLE_EQ(bs.unattributed, 0.0);

  RequestTimes p = b;
  p.remainder = ExecRemainder::kPcc;
  const LayerSplit ps = attribute(p);
  EXPECT_DOUBLE_EQ(ps.pcc, 3.5);
  EXPECT_DOUBLE_EQ(ps.b_init, 0.0);  // PCC runs no B-INIT sweep
  EXPECT_DOUBLE_EQ(ps.unattributed, 0.0);

  // Over the wire with a router hop, the remainder comes from run_ms.
  RequestTimes r = b;
  r.over_wire = true;
  r.total = 12.0;
  r.run = 9.0;
  r.queue = 0.5;
  r.hop = 1.5;
  const LayerSplit rs = attribute(r);
  EXPECT_DOUBLE_EQ(rs.b_iter, 1.5);
  EXPECT_DOUBLE_EQ(rs.hop, 1.5);
  EXPECT_DOUBLE_EQ(rs.net, 1.0);
  EXPECT_NEAR(rs.sum(), 12.0, 1e-12);
}

TEST(Attribute, OvercountedLayersShowAsNegativeUnattributed) {
  RequestTimes t;
  t.total = 1.0;
  t.over_wire = true;
  t.run = 0.6;
  t.b_init = 0.7;  // a re-measured layer larger than the run it sits in
  const LayerSplit s = attribute(t);
  EXPECT_NEAR(s.unattributed, -0.1, 1e-12);
  EXPECT_NEAR(s.sum(), 1.0, 1e-12);
}

TEST(Attribute, MeanSplitSumsToMeanTotal) {
  RequestTimes a;
  a.total = 4.0;
  a.remainder = ExecRemainder::kPcc;
  a.eval = 1.0;
  RequestTimes b;
  b.total = 2.0;
  b.over_wire = true;
  b.run = 1.0;
  b.b_init = 0.25;
  const LayerSplit m = mean_split({a, b});
  EXPECT_DOUBLE_EQ(m.pcc, 1.5);
  EXPECT_DOUBLE_EQ(m.unattributed, 0.375);
  EXPECT_DOUBLE_EQ(m.sum(), 3.0);
  EXPECT_DOUBLE_EQ(mean_split({}).sum(), 0.0);
}

TEST(Sequences, SameSeedSameRequests) {
  const std::vector<int> a = shuffled_rounds(stream_seed(42, 0), 41, 500);
  EXPECT_EQ(a, shuffled_rounds(stream_seed(42, 0), 41, 500));
  EXPECT_NE(a, shuffled_rounds(stream_seed(43, 0), 41, 500));
  EXPECT_NE(a, shuffled_rounds(stream_seed(42, 1), 41, 500));
  EXPECT_NE(stream_seed(7, 0), stream_seed(7, 1));
}

TEST(Sequences, EveryRoundIsAPermutation) {
  const std::vector<int> seq = shuffled_rounds(9, 8, 8 * 5 + 3);
  ASSERT_EQ(seq.size(), 43u);
  for (std::size_t round = 0; round < 5; ++round) {
    std::vector<int> r(seq.begin() + static_cast<long>(round * 8),
                       seq.begin() + static_cast<long>(round * 8 + 8));
    std::sort(r.begin(), r.end());
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(r[static_cast<std::size_t>(i)], i);
    }
  }
}

TEST(Requests, RowsAndWireRequestsAreFixed) {
  EXPECT_EQ(table1_rows().size(), 33u);
  EXPECT_EQ(table2_rows().size(), 4u);
  EXPECT_EQ(fabric_rows().size(), 4u);
  EXPECT_EQ(all_rows().size(), 41u);

  const Distinct d = make_distinct(table2_rows()[2], cvb::StrategyKind::kBIter,
                                   cvb::BindEffort::kFast, 7);
  EXPECT_EQ(d.json,
            R"({"id":"d7","kernel":"FFT","datapath":"[2,2|2,1|2,2|3,1|1,1]",)"
            R"("buses":1,"move_latency":2,"strategy":{"kind":"b-iter",)"
            R"("effort":"fast"}})");
  EXPECT_EQ(d.datapath.num_clusters(), 5);

  const Distinct f = make_distinct(fabric_rows()[1], cvb::StrategyKind::kPcc,
                                   cvb::BindEffort::kBalanced, 0);
  EXPECT_NE(f.json.find("topology mesh:2x2"), std::string::npos);
  EXPECT_FALSE(f.datapath.topology().is_default_single_bus(
      f.datapath.num_buses()));
}

}  // namespace
}  // namespace e2e
