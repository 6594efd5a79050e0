// Telemetry registry semantics (util/metrics), the shared alert rule
// (util/alert_rule) and the shared BENCH_*.json reporter
// (util/bench_report).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "util/alert_rule.hpp"
#include "util/bench_report.hpp"
#include "util/latency_histogram.hpp"
#include "util/metrics.hpp"

using namespace lf;

// ----------------------------------------------------------------- metrics --

TEST(Metrics, CounterIncAndReset) {
  metrics::counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, GaugeMovesBothWays) {
  metrics::gauge g;
  g.set(3.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Metrics, HistogramClampsIntoEdgeBuckets) {
  // The log2 histogram has no range to configure: 0 and 1 ns get their own
  // buckets, and everything past ~3.2 s lands in the top bucket.
  using h = metrics::latency_histogram;
  h hist;
  hist.record(0);
  hist.record(1);
  hist.record(std::uint64_t{1} << 40);  // ~18 min: above range
  hist.record(~std::uint64_t{0}, 2);
  metrics::latency_snapshot s;
  hist.snapshot_into(s);
  EXPECT_EQ(s.total(), 5u);
  EXPECT_EQ(s.counts[0], 1u);
  EXPECT_EQ(s.counts[1], 1u);
  EXPECT_EQ(s.counts[h::k_buckets - 1], 3u);
  // A clamped tail caps the quantiles at the top bucket's upper edge.
  EXPECT_DOUBLE_EQ(s.quantile(1.0),
                   static_cast<double>(h::bucket_floor(h::k_buckets - 1) +
                                       h::bucket_width(h::k_buckets - 1)));
}

TEST(Metrics, HistogramQuantileAndMean) {
  metrics::latency_histogram h;
  for (std::uint64_t ns = 1000; ns < 2000; ++ns) h.record(ns);
  metrics::latency_snapshot s;
  h.snapshot_into(s);
  // The samples fill [768, 1024), [1024, 1536) and [1536, 2048).
  // Interpolation within the crossing bucket keeps each quantile inside its
  // bucket, and the midpoint mean lands within a bucket width of 1499.5.
  EXPECT_GE(s.quantile(0.5), 1024.0);
  EXPECT_LE(s.quantile(0.5), 1536.0);
  EXPECT_GE(s.quantile(0.99), 1536.0);
  EXPECT_LE(s.quantile(0.99), 2048.0);
  EXPECT_NEAR(s.approx_mean_ns(), 1499.5, 512.0);
  h.reset();
  metrics::latency_snapshot z;
  h.snapshot_into(z);
  EXPECT_EQ(z.total(), 0u);
  EXPECT_DOUBLE_EQ(z.quantile(0.5), 0.0);
}

TEST(Metrics, AtomicCounterSingleWriterSemantics) {
  // The rt engine's per-worker counters: inc() is load+store (no RMW), so
  // only the owning thread may write, and any thread may read a slightly
  // stale but never-torn value.
  metrics::atomic_counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, AtomicCounterRegistryBindingAndScalars) {
  metrics::registry reg;
  metrics::atomic_counter c;
  c.inc(7);
  reg.register_counter("rt.w0.routes", c);
  ASSERT_NE(reg.find_atomic_counter("rt.w0.routes"), nullptr);
  EXPECT_EQ(reg.find_atomic_counter("rt.w0.routes"), &c);
  // Kind-checked: an atomic counter is not a plain counter or gauge.
  EXPECT_EQ(reg.find_counter("rt.w0.routes"), nullptr);
  EXPECT_EQ(reg.find_gauge("rt.w0.routes"), nullptr);
  const auto flat = reg.scalars();
  const auto it = std::find_if(flat.begin(), flat.end(), [](const auto& kv) {
    return kv.first == "rt.w0.routes";
  });
  ASSERT_NE(it, flat.end());
  EXPECT_EQ(it->second, 7.0);
  reg.reset_all();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, RegistryFindAndContains) {
  metrics::registry reg;
  metrics::counter c;
  metrics::gauge g;
  reg.register_counter("a.hits", c);
  reg.register_gauge("a.level", g);
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_TRUE(reg.contains("a.hits"));
  EXPECT_FALSE(reg.contains("a.misses"));
  ASSERT_NE(reg.find_counter("a.hits"), nullptr);
  EXPECT_EQ(reg.find_counter("a.hits"), &c);
  // Kind-checked lookup: a counter name is not a gauge.
  EXPECT_EQ(reg.find_gauge("a.hits"), nullptr);
}

TEST(Metrics, ReRegistrationRebinds) {
  // Components are torn down and rebuilt between runs; the new instance
  // takes over the name.
  metrics::registry reg;
  metrics::counter first, second;
  first.inc(7);
  reg.register_counter("x", first);
  reg.register_counter("x", second);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_EQ(reg.find_counter("x"), &second);
  EXPECT_EQ(reg.find_counter("x")->value(), 0u);
}

TEST(Metrics, ScalarsFlattensCountersAndGauges) {
  metrics::registry reg;
  metrics::counter c;
  c.inc(3);
  metrics::gauge g;
  g.set(1.5);
  time_series ts{"t"};
  ts.record(0.0, 1.0);
  reg.register_counter("c", c);
  reg.register_gauge("g", g);
  reg.register_series("s", ts);

  const auto flat = reg.scalars();
  // Series contribute no scalars.
  ASSERT_EQ(flat.size(), 2u);
  EXPECT_EQ(flat[0].first, "c");
  EXPECT_DOUBLE_EQ(flat[0].second, 3.0);
  EXPECT_EQ(flat[1].first, "g");
  EXPECT_DOUBLE_EQ(flat[1].second, 1.5);
}

TEST(Metrics, ResetAllClearsEverythingBetweenRuns) {
  metrics::registry reg;
  metrics::counter c;
  c.inc(9);
  metrics::gauge g;
  g.set(2.0);
  time_series ts{"t"};
  ts.record(1.0, 5.0);
  reg.register_counter("c", c);
  reg.register_gauge("g", g);
  reg.register_series("s", ts);
  reg.reset_all();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_TRUE(ts.points().empty());
}

TEST(Metrics, UnregisterRemovesBinding) {
  metrics::registry reg;
  metrics::counter c;
  reg.register_counter("c", c);
  reg.unregister("c");
  EXPECT_FALSE(reg.contains("c"));
  reg.unregister("never-there");  // no-op
  EXPECT_EQ(reg.size(), 0u);
}

// -------------------------------------------------------------- alert rule --

namespace {

using metrics::alert_rule;
using metrics::breach_side;
using metrics::rule_baseline;
using metrics::rule_spec;

constexpr rule_spec k_fixed_k3{
    breach_side::above, [](const rule_baseline&) { return 0.5; }, 0, 3, 1};

}  // namespace

TEST(AlertRule, FiresOnTheKthConsecutiveBreachOncePerExcursion) {
  alert_rule r{k_fixed_k3};
  EXPECT_FALSE(r.observe(1.0, 1.0));
  EXPECT_FALSE(r.observe(2.0, 1.0));
  EXPECT_FALSE(r.observe(3.0, 0.0));  // clean: the run resets
  EXPECT_EQ(r.breach_run(), 0u);
  EXPECT_FALSE(r.observe(4.0, 1.0));
  EXPECT_FALSE(r.observe(5.0, 1.0));
  EXPECT_TRUE(r.observe(6.0, 1.0));
  EXPECT_EQ(r.breach_run(), 3u);
  EXPECT_DOUBLE_EQ(r.first_breach_t(), 4.0);
  EXPECT_DOUBLE_EQ(r.threshold(), 0.5);
  EXPECT_FALSE(r.observe(7.0, 1.0));  // latched for the excursion
  EXPECT_EQ(r.breach_run(), 4u);
  EXPECT_FALSE(r.observe(8.0, 0.0));  // re-arms
  EXPECT_FALSE(r.observe(9.0, 1.0));
  EXPECT_FALSE(r.observe(10.0, 1.0));
  EXPECT_TRUE(r.observe(11.0, 1.0));
}

TEST(AlertRule, WarmupFoldsEveryObservationIntoTheEwmaBaseline) {
  constexpr rule_spec spec{
      breach_side::above,
      [](const rule_baseline& b) { return b.mean * 2.0; }, 3, 1, 1};
  alert_rule r{spec};
  EXPECT_FALSE(r.observe(1.0, 100.0));
  EXPECT_FALSE(r.observe(2.0, 1000.0));  // would breach once warm
  EXPECT_FALSE(r.observe(3.0, 100.0));
  // mean 100 -> 325 -> 268.75; mad 0 -> 225 -> 225 (alpha 0.25).
  EXPECT_EQ(r.baseline().samples, 3u);
  EXPECT_DOUBLE_EQ(r.baseline().mean, 268.75);
  EXPECT_DOUBLE_EQ(r.baseline().mad, 225.0);
  EXPECT_TRUE(r.observe(4.0, 1000.0));  // warm: 1000 > 2 * 268.75
  EXPECT_DOUBLE_EQ(r.threshold(), 537.5);
  EXPECT_EQ(r.baseline().samples, 3u);  // the breach did not fold
}

TEST(AlertRule, ProvisionallyCleanObservationsNeitherFoldNorResetTheRun) {
  constexpr rule_spec spec{
      breach_side::above,
      [](const rule_baseline& b) { return b.mean + 10.0; }, 1, 2, 3};
  alert_rule r{spec};
  EXPECT_FALSE(r.observe(0.0, 5.0));   // warmup: mean 5
  EXPECT_FALSE(r.observe(1.0, 50.0));  // breach 1
  EXPECT_FALSE(r.observe(2.0, 6.0));   // provisionally clean
  EXPECT_EQ(r.breach_run(), 1u);
  EXPECT_TRUE(r.observe(3.0, 50.0));  // breach 2 completes the same run
  EXPECT_DOUBLE_EQ(r.first_breach_t(), 1.0);
  EXPECT_EQ(r.baseline().samples, 1u);
  EXPECT_FALSE(r.observe(4.0, 6.0));
  EXPECT_FALSE(r.observe(5.0, 6.0));
  EXPECT_EQ(r.baseline().samples, 1u);  // two clean: still provisional
  EXPECT_FALSE(r.observe(6.0, 6.0));    // the third closes the run, folds
  EXPECT_EQ(r.baseline().samples, 2u);
  EXPECT_EQ(r.breach_run(), 0u);
  EXPECT_FALSE(r.observe(7.0, 50.0));
  EXPECT_TRUE(r.observe(8.0, 50.0));  // re-armed: a fresh incident
}

TEST(AlertRule, BelowSideAndExplicitRearm) {
  // Breach under half the baseline, only once the baseline is >= 0.2.
  constexpr rule_spec spec{
      breach_side::below,
      [](const rule_baseline& b) {
        return b.mean >= 0.2 ? b.mean * 0.5
                             : -std::numeric_limits<double>::infinity();
      },
      1, 1, 1};
  alert_rule idle{spec};
  EXPECT_FALSE(idle.observe(0.0, 0.1));
  EXPECT_FALSE(idle.observe(1.0, 0.0));  // baseline too low to apply

  alert_rule r{spec};
  EXPECT_FALSE(r.observe(0.0, 0.8));
  EXPECT_FALSE(r.observe(1.0, 0.5));  // above 0.4: clean
  EXPECT_TRUE(r.observe(2.0, 0.1));
  EXPECT_FALSE(r.observe(3.0, 0.1));  // latched
  const std::size_t folded = r.baseline().samples;
  r.rearm();  // explicit re-arm: unlatches, folds nothing
  EXPECT_EQ(r.baseline().samples, folded);
  EXPECT_EQ(r.breach_run(), 0u);
  EXPECT_TRUE(r.observe(4.0, 0.1));
}

// ------------------------------------------------------------ bench report --

TEST(BenchReport, JsonCarriesConfigSeriesSummary) {
  bench::report rep{"figtest", "unit \"quoted\" title"};
  rep.config("duration", 2.5);
  rep.config("scheme", std::string{"LF-Aurora"});
  rep.config_bool("gated", true);
  rep.add_point("goodput", 0.0, 1e6);
  rep.add_point("goodput", 1.0, 2e6);
  rep.summary("mean_mbps", 1.5);

  const std::string j = rep.json();
  EXPECT_NE(j.find("\"figure\": \"figtest\""), std::string::npos);
  EXPECT_NE(j.find("\\\"quoted\\\""), std::string::npos);  // escaped
  EXPECT_NE(j.find("\"duration\": 2.5"), std::string::npos);
  EXPECT_NE(j.find("\"scheme\": \"LF-Aurora\""), std::string::npos);
  EXPECT_NE(j.find("\"gated\": true"), std::string::npos);
  EXPECT_NE(j.find("\"goodput\""), std::string::npos);
  EXPECT_NE(j.find("\"mean_mbps\": 1.5"), std::string::npos);
  // Balanced braces/brackets — a cheap structural validity check.
  EXPECT_EQ(std::count(j.begin(), j.end(), '{'),
            std::count(j.begin(), j.end(), '}'));
  EXPECT_EQ(std::count(j.begin(), j.end(), '['),
            std::count(j.begin(), j.end(), ']'));
}

TEST(BenchReport, WriteHonorsLfBenchOut) {
  ::setenv("LF_BENCH_OUT", ::testing::TempDir().c_str(), 1);
  bench::report rep{"figtest_write", "write test"};
  rep.summary("x", 1.0);
  const std::string path = rep.write();
  ::unsetenv("LF_BENCH_OUT");
  ASSERT_FALSE(path.empty());
  EXPECT_NE(path.find("BENCH_figtest_write.json"), std::string::npos);
  std::ifstream is{path};
  ASSERT_TRUE(is.good());
  std::stringstream ss;
  ss << is.rdbuf();
  EXPECT_EQ(ss.str(), rep.json());
}

TEST(BenchReport, EmittedSeqIsMonotonicAndSerialized) {
  bench::report a{"figseq_a", "seq a"};
  bench::report b{"figseq_b", "seq b"};
  EXPECT_LT(a.emitted_seq(), b.emitted_seq());
  const std::string j = a.json();
  std::ostringstream expect;
  expect << "\"emitted_seq\": " << a.emitted_seq();
  EXPECT_NE(j.find(expect.str()), std::string::npos);
}

TEST(BenchReport, WriteToMissingDirectoryFailsWithEmptyPath) {
  const std::string missing =
      std::string{::testing::TempDir()} + "/no-such-dir-for-bench";
  ::setenv("LF_BENCH_OUT", missing.c_str(), 1);
  bench::report rep{"figtest_missing", "missing dir"};
  const std::string path = rep.write();
  ::unsetenv("LF_BENCH_OUT");
  EXPECT_TRUE(path.empty());
}

TEST(BenchReport, TimeSeriesOverloadUsesSeriesName) {
  time_series ts{"queue_bytes"};
  ts.record(0.5, 1000.0);
  bench::report rep{"figtest_ts", "series overload"};
  rep.add_series(ts);
  const std::string j = rep.json();
  EXPECT_NE(j.find("\"queue_bytes\": [[0.5,1000]]"), std::string::npos);
}

TEST(BenchReport, TablesSerializeAsRowObjects) {
  bench::report rep{"figtest_tables", "table test"};
  const std::vector<std::pair<std::string, double>> row1 = {
      {"version", 1.0}, {"install_time", 0.25}};
  const std::vector<std::pair<std::string, double>> row2 = {
      {"version", 2.0}, {"install_time", 1.5}};
  rep.add_row("lifecycle", row1);
  rep.add_row("lifecycle", row2);
  const std::vector<std::pair<std::string, double>> other = {{"kind", 3.0}};
  rep.add_row("alerts", other);

  const std::string j = rep.json();
  EXPECT_NE(j.find("\"tables\""), std::string::npos);
  EXPECT_NE(j.find("\"lifecycle\""), std::string::npos);
  EXPECT_NE(j.find("{\"version\": 1,\"install_time\": 0.25}"),
            std::string::npos);
  EXPECT_NE(j.find("{\"version\": 2,\"install_time\": 1.5}"),
            std::string::npos);
  EXPECT_NE(j.find("\"alerts\""), std::string::npos);
  EXPECT_EQ(std::count(j.begin(), j.end(), '{'),
            std::count(j.begin(), j.end(), '}'));
  EXPECT_EQ(std::count(j.begin(), j.end(), '['),
            std::count(j.begin(), j.end(), ']'));
}

TEST(BenchReport, NoTablesKeyWithoutRows) {
  bench::report rep{"figtest_notables", "no tables"};
  rep.summary("x", 1.0);
  EXPECT_EQ(rep.json().find("\"tables\""), std::string::npos);
}
