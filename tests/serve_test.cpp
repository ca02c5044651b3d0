// Tests of the fvf::serve scenario service: canonical hashing of
// requests, memoized responses byte-identical to cold runs for every
// thread count, and coalescing of concurrent identical requests.
#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "serve/request.hpp"
#include "serve/response.hpp"
#include "serve/service.hpp"

namespace fvf::serve {
namespace {

/// One cheap scenario per fabric program, sized so a cold run takes
/// milliseconds.
const char* const kPrograms[] = {
    "program=tpfa nx=4 ny=4 nz=3 seed=7 iterations=2",
    "program=cg nx=5 ny=5 nz=4 seed=7 max-iterations=80 tolerance=1e-3",
    "program=transport nx=5 ny=5 nz=4 seed=7 window=600",
    "program=wave nx=5 ny=5 nz=4 seed=7 steps=4",
    "program=impes nx=4 ny=4 nz=3 seed=7 windows=2 dt=900",
};

u64 hash_of(std::string_view line) {
  return scenario_hash(parse_request(line));
}

// --- canonical hashing -----------------------------------------------------

TEST(ScenarioHashTest, SpellingAndFieldOrderAreIrrelevant) {
  const u64 reference = hash_of(
      "program=cg nx=5 ny=5 nz=4 seed=7 iterations=120 tol=1e-4 "
      "fault-seed=3 fault-rate=1e-6");
  // Reordered fields, underscore spellings, documented aliases
  // (max-iterations -> iterations, tolerance -> tol), and equivalent
  // float spellings must all name the same scenario.
  EXPECT_EQ(reference,
            hash_of("fault_rate=0.000001 tolerance=0.0001 seed=7 "
                    "max_iterations=120 nz=4 ny=5 nx=5 program=cg "
                    "fault_seed=3"));
  EXPECT_EQ(reference,
            hash_of("program=cg, nx=5, ny=5, nz=4, seed=7, iterations=120, "
                    "tol=1.0e-4, fault-seed=3, fault-rate=1.0e-6"));
}

TEST(ScenarioHashTest, SchedulingFieldsNeverEnterTheHash) {
  const u64 reference = hash_of("program=tpfa nx=4 ny=4 nz=3 seed=7 "
                                "iterations=2");
  EXPECT_EQ(reference,
            hash_of("program=tpfa nx=4 ny=4 nz=3 seed=7 iterations=2 "
                    "threads=4 priority=interactive deadline-ms=100 "
                    "lint=warn checkpoint-every=2"));
}

TEST(ScenarioHashTest, ExplicitDefaultsEqualDefaultedRequest) {
  // parse_request resolves the per-program 0 sentinels, so spelling a
  // default out loud is the same scenario as omitting it.
  EXPECT_EQ(hash_of("program=cg nx=5 ny=5 nz=4 seed=7"),
            hash_of("program=cg nx=5 ny=5 nz=4 seed=7 iterations=200 "
                    "dt=3600 tol=1e-5"));
}

TEST(ScenarioHashTest, ContentFieldsChangeTheHash) {
  const u64 reference = hash_of(kPrograms[0]);
  EXPECT_NE(reference, hash_of("program=tpfa nx=4 ny=4 nz=3 seed=8 "
                               "iterations=2"));
  EXPECT_NE(reference, hash_of("program=tpfa nx=5 ny=4 nz=3 seed=7 "
                               "iterations=2"));
  EXPECT_NE(reference, hash_of("program=tpfa nx=4 ny=4 nz=3 seed=7 "
                               "iterations=3"));
  EXPECT_NE(reference, hash_of("program=tpfa nx=4 ny=4 nz=3 seed=7 "
                               "iterations=2 fault-rate=1e-6"));
}

TEST(ScenarioHashTest, CanonicalContentHasTheDocumentedFixedForm) {
  const ScenarioRequest request = parse_request(
      "program=tpfa nx=4 ny=4 nz=3 seed=7 iterations=2");
  EXPECT_EQ(canonical_content(request),
            "backend=wse dt=3600 fault_rate=0 fault_seed=1 iterations=2 "
            "nx=4 ny=4 nz=3 program=tpfa seed=7 "
            "tol=1.0000000000000001e-05");
}

TEST(ScenarioHashTest, MalformedRequestsThrow) {
  EXPECT_THROW((void)parse_request("program=nope"), ContractViolation);
  EXPECT_THROW((void)parse_request("program=cg bogus_field=1"),
               ContractViolation);
  EXPECT_THROW((void)parse_request("program=cg nx"), ContractViolation);
  EXPECT_THROW((void)parse_request("program=cg nx=-2"), ContractViolation);
  EXPECT_THROW((void)parse_request("program=cg tol=banana"),
               ContractViolation);
  // Out-of-range values are rejected, never wrapped into another
  // scenario: an i32 field beyond 32 bits, a negative u64 field, and
  // non-finite floats.
  EXPECT_THROW((void)parse_request("program=cg nx=4294967300 ny=4 nz=2"),
               ContractViolation);
  EXPECT_THROW((void)parse_request("program=impes deadline_ms=-5"),
               ContractViolation);
  EXPECT_THROW((void)parse_request("program=cg seed=-1"), ContractViolation);
  EXPECT_THROW((void)parse_request("program=transport dt=inf"),
               ContractViolation);
  EXPECT_THROW((void)parse_request("program=cg tol=inf"), ContractViolation);
  EXPECT_THROW((void)parse_request("program=cg fault_rate=nan"),
               ContractViolation);
}

// --- memoization: cached == cold, bit for bit ------------------------------

/// Runs `line` cold on a fresh single-scenario service and returns the
/// canonical serialization of its response.
std::string cold_bytes(const std::string& line) {
  ServiceOptions options;
  options.workers = 0;  // manual mode: deterministic, this thread
  ScenarioService service(options);
  const std::shared_future<ScenarioResponse> future =
      service.submit_line(line);
  service.drain();
  const ScenarioResponse response = future.get();
  EXPECT_TRUE(response.ok()) << line << ": " << response.error;
  EXPECT_FALSE(response.cache_hit);
  return serialize_response(response);
}

TEST(ServeMemoTest, ColdRunsAreBitIdenticalForEveryThreadCount) {
  // The event engine is bit-deterministic in --threads, which is the
  // entire justification for leaving the thread count out of the
  // scenario hash. Prove it per program by diffing serialized results.
  for (const char* line : kPrograms) {
    const std::string threads1 = cold_bytes(std::string(line) + " threads=1");
    const std::string threads2 = cold_bytes(std::string(line) + " threads=2");
    const std::string threads4 = cold_bytes(std::string(line) + " threads=4");
    EXPECT_EQ(threads1, threads2) << line;
    EXPECT_EQ(threads1, threads4) << line;
  }
}

TEST(ServeMemoTest, MemoHitIsByteIdenticalToTheColdRun) {
  ServiceOptions options;
  options.workers = 0;
  ScenarioService service(options);
  std::vector<std::string> cold;
  for (const char* line : kPrograms) {
    const std::shared_future<ScenarioResponse> future =
        service.submit_line(std::string(line) + " threads=1");
    service.drain();
    cold.push_back(serialize_response(future.get()));
  }
  // Replay each scenario with different scheduling fields: every one
  // must be answered from the memo, without running, with the exact
  // bytes of the cold run.
  for (usize i = 0; i < std::size(kPrograms); ++i) {
    const ScenarioResponse replay =
        service
            .submit_line(std::string(kPrograms[i]) +
                         " threads=4 priority=interactive")
            .get();
    EXPECT_TRUE(replay.ok()) << kPrograms[i] << ": " << replay.error;
    EXPECT_TRUE(replay.cache_hit) << kPrograms[i];
    EXPECT_EQ(serialize_response(replay), cold[i]) << kPrograms[i];
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.executor.simulations, std::size(kPrograms));
  EXPECT_EQ(stats.memo.misses, std::size(kPrograms));
  EXPECT_EQ(stats.memo.hits, std::size(kPrograms));
}

TEST(ServeMemoTest, ProblemAndSetupCachesShareAcrossScenarios) {
  ServiceOptions options;
  options.workers = 0;
  ScenarioService service(options);
  // Two different scenarios (different work counts — different memo
  // keys) over the same (extents, seed, dt): the second must reuse the
  // first's problem and linear setup.
  (void)service.submit_line("program=cg nx=5 ny=5 nz=4 seed=7 "
                            "max-iterations=80 tolerance=1e-3");
  service.drain();
  (void)service.submit_line("program=wave nx=5 ny=5 nz=4 seed=7 steps=4");
  service.drain();
  const ExecutorStats stats = service.stats().executor;
  EXPECT_EQ(stats.simulations, 2u);
  EXPECT_EQ(stats.setups.misses, 1u);
  EXPECT_EQ(stats.setups.hits, 1u);
}

// --- coalescing ------------------------------------------------------------

TEST(ServeCoalescingTest, IdenticalQueuedRequestsShareOneExecution) {
  ServiceOptions options;
  options.workers = 0;
  ScenarioService service(options);
  const std::string line = kPrograms[0];
  const std::shared_future<ScenarioResponse> first =
      service.submit_line(line);
  // Different spelling, same scenario: joins the queued job instead of
  // enqueueing a second one.
  const std::shared_future<ScenarioResponse> second = service.submit_line(
      "iterations=2 seed=7 nz=3 ny=4 nx=4 program=tpfa threads=2");
  service.drain();

  const ScenarioResponse a = first.get();
  const ScenarioResponse b = second.get();
  EXPECT_TRUE(a.ok()) << a.error;
  EXPECT_TRUE(b.ok()) << b.error;
  EXPECT_EQ(serialize_response(a), serialize_response(b));

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.executor.simulations, 1u);
  EXPECT_EQ(stats.coalesced, 1u);
  EXPECT_EQ(stats.memo.misses, 1u);
  EXPECT_EQ(stats.max_queue_depth, 1u);
}

TEST(ServeCoalescingTest, ConcurrentIdenticalRequestsRunOnce) {
  // Live workers: two identical submissions race the executor. Whether
  // the second coalesces onto the in-flight run or hits the memo after
  // it finishes, exactly one simulation may happen and both responses
  // must carry identical bytes.
  ServiceOptions options;
  options.workers = 2;
  ScenarioService service(options);
  const std::string line =
      "program=cg nx=5 ny=5 nz=4 seed=7 max-iterations=80 tolerance=1e-3";
  const std::shared_future<ScenarioResponse> first =
      service.submit_line(line + " threads=1");
  const std::shared_future<ScenarioResponse> second =
      service.submit_line(line + " threads=2");
  const ScenarioResponse a = first.get();
  const ScenarioResponse b = second.get();
  EXPECT_TRUE(a.ok()) << a.error;
  EXPECT_TRUE(b.ok()) << b.error;
  EXPECT_EQ(serialize_response(a), serialize_response(b));
  EXPECT_EQ(service.stats().executor.simulations, 1u);
}

// --- service lifecycle -----------------------------------------------------

TEST(ServeLifecycleTest, SubmitAfterShutdownIsShedNotThrown) {
  ServiceOptions options;
  options.workers = 0;
  ScenarioService service(options);
  service.shutdown();
  const ScenarioResponse response =
      service.submit_line(kPrograms[0]).get();
  EXPECT_EQ(response.status, RequestStatus::Shed);
  EXPECT_EQ(response.error, "service stopped");
}

TEST(ServeLifecycleTest, FailedScenarioIsRecordedNotMemoized) {
  ServiceOptions options;
  options.workers = 0;
  ScenarioService service(options);
  // 2 CG iterations cannot converge at tol=1e-5: status Failed with the
  // reason recorded, and a retry executes again (failures never memoize).
  const std::string line =
      "program=cg nx=5 ny=5 nz=4 seed=7 max-iterations=2";
  const std::shared_future<ScenarioResponse> first =
      service.submit_line(line);
  service.drain();
  const ScenarioResponse response = first.get();
  EXPECT_EQ(response.status, RequestStatus::Failed);
  EXPECT_NE(response.error.find("did not converge"), std::string::npos)
      << response.error;

  const std::shared_future<ScenarioResponse> retry =
      service.submit_line(line);
  service.drain();
  EXPECT_EQ(retry.get().status, RequestStatus::Failed);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.failed, 2u);
  EXPECT_EQ(stats.executor.simulations, 2u);
  EXPECT_EQ(stats.memo.hits, 0u);
}

}  // namespace
}  // namespace fvf::serve
