// Unit tests of the benchmark's own measurement machinery: the tail
// percentile rule, the seeded request schedule, span self time, and the
// metric catalog against BENCHMARK.json.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>

#include "e2e.hpp"
#include "obs/json.hpp"
#include "serve/request.hpp"
#include "workloads.hpp"

namespace fvf::e2e {
namespace {

std::vector<f64> ramp(usize n) {
  std::vector<f64> samples;
  for (usize i = 1; i <= n; ++i) {
    samples.push_back(static_cast<f64>(i));
  }
  return samples;
}

TEST(TailPercentile, PicksTheHighestRungWithTenSamplesBeyond) {
  const auto p99 = tail_percentile(ramp(1000));
  ASSERT_TRUE(p99.has_value());
  EXPECT_EQ(p99->percentile, 99.0);
  EXPECT_EQ(p99->value, 990.0);
  EXPECT_EQ(p99->beyond, 10u);

  // One sample fewer leaves p99 with only 9 beyond: fall to p95.
  const auto p95 = tail_percentile(ramp(999));
  ASSERT_TRUE(p95.has_value());
  EXPECT_EQ(p95->percentile, 95.0);
  EXPECT_GE(p95->beyond, 10u);

  const auto p50 = tail_percentile(ramp(20));
  ASSERT_TRUE(p50.has_value());
  EXPECT_EQ(p50->percentile, 50.0);
  EXPECT_EQ(p50->beyond, 10u);
  EXPECT_FALSE(tail_percentile(ramp(19)).has_value());
  EXPECT_FALSE(tail_percentile({}).has_value());
}

TEST(TailPercentile, IgnoresInputOrder) {
  std::vector<f64> samples = ramp(400);
  std::reverse(samples.begin(), samples.end());
  const auto tail = tail_percentile(samples);
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->percentile, 95.0);
  EXPECT_EQ(tail->value, 380.0);
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_THROW((void)median({}), std::invalid_argument);
}

TEST(Schedule, SameSeedGivesByteIdenticalSchedules) {
  const ScheduleOptions options;
  const std::string a = describe(make_schedule(7, options));
  const std::string b = describe(make_schedule(7, options));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, describe(make_schedule(8, options)));
}

TEST(Schedule, FollowsTheMix) {
  ScheduleOptions options;
  options.seconds = 25.0;  // 2500 arrivals round to 21 blocks of 120
  ASSERT_EQ(fresh_block_size(options), 72u);
  ASSERT_EQ(arrivals_per_block(options), 120u);
  const std::vector<ScheduledRequest> schedule = make_schedule(3, options);
  ASSERT_EQ(schedule.size(), 21u * 120u);
  usize repeats = 0;
  usize respelled = 0;
  usize fresh = 0;
  usize fresh_strict = 0;
  usize fresh_gpusim = 0;
  f64 last_due = 0.0;
  std::set<std::string> programs;
  for (const ScheduledRequest& request : schedule) {
    EXPECT_GE(request.due, last_due);
    last_due = request.due;
    repeats += request.kind == ScheduledRequest::Kind::Repeat ? 1 : 0;
    respelled += request.kind == ScheduledRequest::Kind::Respelled ? 1 : 0;
    const serve::ScenarioRequest parsed =
        serve::resolve_defaults(serve::parse_request(request.line));
    programs.insert(std::string(serve::program_name(parsed.program)));
    if (request.kind == ScheduledRequest::Kind::Fresh) {
      ++fresh;
      fresh_strict += parsed.lint == lint::Level::Strict ? 1 : 0;
      fresh_gpusim += parsed.backend == serve::BackendChoice::Gpusim ? 1 : 0;
    }
  }
  // Kinds come in exact proportion; the fresh blocks carry the gpusim and
  // strict-lint shares, rounded per block of 72.
  EXPECT_EQ(repeats, static_cast<usize>(kRepeatShare * 2520 + 0.5));
  EXPECT_EQ(respelled, static_cast<usize>(kRespellShare * 2520 + 0.5));
  EXPECT_EQ(fresh, 21u * 72u);
  EXPECT_EQ(fresh_strict, 21u * 14u);  // round(0.20 * 72)
  EXPECT_EQ(fresh_gpusim, 21u * 18u);  // round(0.25 * 72)
  EXPECT_EQ(programs.size(), 6u);
  EXPECT_NEAR(last_due / 2520.0, 1.0 / options.rate_per_s,
              0.1 / options.rate_per_s);
}

TEST(Schedule, SeedMovesTheOrderNotTheColdWork) {
  const ScheduleOptions options;
  const auto fresh_lines = [&options](u64 seed) {
    std::multiset<std::string> lines;
    for (const ScheduledRequest& request : make_schedule(seed, options)) {
      if (request.kind == ScheduledRequest::Kind::Fresh) {
        lines.insert(request.line);
      }
    }
    return lines;
  };
  const std::multiset<std::string> a = fresh_lines(4);
  EXPECT_EQ(a.size(), make_schedule(4, options).size() * 6 / 10);
  EXPECT_EQ(a, fresh_lines(5));
  EXPECT_NE(describe(make_schedule(4, options)),
            describe(make_schedule(5, options)));
}

TEST(Schedule, RespellingsHashLikeTheirOriginal) {
  const std::vector<ScheduledRequest> schedule =
      make_schedule(11, ScheduleOptions{});
  std::set<u64> fresh;
  usize checked = 0;
  for (const ScheduledRequest& request : schedule) {
    const u64 hash = serve::scenario_hash(
        serve::resolve_defaults(serve::parse_request(request.line)));
    if (request.kind == ScheduledRequest::Kind::Fresh) {
      fresh.insert(hash);
    } else {
      EXPECT_EQ(fresh.count(hash), 1u) << request.line;
      ++checked;
    }
  }
  EXPECT_GT(checked, 50u);
}

Span span(u64 id, u64 parent, const char* name, f64 start, f64 end) {
  return Span{id, parent, name, start, end, -1, 0};
}

TEST(SelfTime, SubtractsTheUnionOfDirectChildren) {
  const std::vector<Span> spans = {
      span(1, 0, "scenario", 0.0, 10.0),
      span(2, 1, "load", 1.0, 3.0),
      span(3, 1, "run", 2.0, 6.0),      // overlaps load: union is [1, 6]
      span(4, 3, "inner", 2.5, 5.0),    // grandchild: charged to run only
      span(5, 1, "teardown", 9.0, 12.0),  // clipped to the parent's end
  };
  const std::vector<f64> self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 5.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_DOUBLE_EQ(self[2], 4.0 - 2.5);
  EXPECT_DOUBLE_EQ(self[3], 2.5);
  EXPECT_DOUBLE_EQ(self[4], 3.0);
}

TEST(SelfTime, UnitsSumLayersPerRoot) {
  const std::vector<Span> spans = {
      span(1, 0, "scenario", 0.0, 4.0), span(2, 1, "load", 0.0, 1.0),
      span(3, 1, "run", 1.0, 3.5),      span(4, 0, "scenario", 5.0, 7.0),
      span(5, 4, "run", 5.0, 7.0),      span(6, 0, "other", 0.0, 1.0),
  };
  const std::vector<UnitLayers> units = units_of(spans, "scenario");
  ASSERT_EQ(units.size(), 2u);
  EXPECT_DOUBLE_EQ(units[0].duration, 4.0);
  EXPECT_DOUBLE_EQ(units[0].root_self, 0.5);
  EXPECT_DOUBLE_EQ(units[0].layer_self.at("load"), 1.0);
  EXPECT_DOUBLE_EQ(units[0].layer_sum(), 3.5);
  EXPECT_DOUBLE_EQ(units[1].layer_self.at("run"), 2.0);
  EXPECT_EQ(units[1].layer_self.count("load"), 0u);
}

TEST(Report, ResultLineCarriesEveryCatalogMetric) {
  Report report;
  report.set("setup_s", 1.25);
  report.set("scenario_s", 0.1);
  report.set("device_cycles", 8449.6);
  report.set("peak_rss_mb", 512.0);
  report.check(true, "ok");
  const obs::JsonValue line = obs::parse_json(result_line(report, false));
  EXPECT_TRUE(line.find("correct")->boolean);
  EXPECT_EQ(line.find("attempted")->number, 1.0);
  const obs::JsonValue* metrics = line.find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->object.size(), end_to_end_metrics().size());
  EXPECT_EQ(metrics->find("device_cycles")->find("value")->number, 8449.6);
  EXPECT_EQ(metrics->find("scenario_s"), nullptr);

  const obs::JsonValue traced = obs::parse_json(result_line(report, true));
  EXPECT_EQ(traced.find("metrics")->object.size(), per_layer_metrics().size());
  EXPECT_EQ(traced.find("metrics")->find("scenario_s")->find("value")->number,
            0.1);

  Report missing;
  EXPECT_THROW((void)result_line(missing, false), std::logic_error);
  EXPECT_THROW(missing.set("not_a_metric", 1.0), std::invalid_argument);
}

TEST(Catalog, MatchesBenchmarkJson) {
  std::ifstream in(FLUXWSE_BENCHMARK_JSON);
  ASSERT_TRUE(in.good()) << FLUXWSE_BENCHMARK_JSON;
  std::stringstream text;
  text << in.rdbuf();
  const obs::JsonValue benchmark = obs::parse_json(text.str());
  const auto expect_list = [&](const char* key,
                               const std::vector<MetricDef>& catalog) {
    const obs::JsonValue* list = benchmark.find(key);
    ASSERT_NE(list, nullptr) << key;
    ASSERT_EQ(list->array.size(), catalog.size()) << key;
    for (usize i = 0; i < catalog.size(); ++i) {
      EXPECT_EQ(list->array[i].find("name")->string, catalog[i].name);
      EXPECT_EQ(list->array[i].find("unit")->string, catalog[i].unit);
    }
  };
  expect_list("end_to_end", end_to_end_metrics());
  expect_list("per_layer", per_layer_metrics());

  const obs::JsonValue* workloads = benchmark.find("workloads");
  ASSERT_NE(workloads, nullptr);
  ASSERT_EQ(workloads->array.size(), workload_names().size());
  for (usize i = 0; i < workload_names().size(); ++i) {
    EXPECT_EQ(workloads->array[i].find("name")->string, workload_names()[i]);
  }
}

}  // namespace
}  // namespace fvf::e2e
