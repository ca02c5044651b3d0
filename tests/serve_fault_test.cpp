// Fault-path tests of the fvf::serve scenario service: deterministic
// admission-control shedding, clean deadline cancellation (in queue and
// mid-run), and checkpoint/restore of interrupted IMPES jobs.
//
// Every test runs the service in manual mode (workers = 0) with an
// injected clock that advances 10 ms per observation, so queue times,
// deadline expiry points, and shed victims are exact — no sleeps, no
// racing.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "serve/request.hpp"
#include "serve/response.hpp"
#include "serve/service.hpp"

namespace fvf::serve {
namespace {

/// A manual-mode service with a deterministic clock: now() jumps 10 ms
/// every time anyone looks at it.
ServiceOptions manual_options() {
  ServiceOptions options;
  options.workers = 0;
  auto fake_now = std::make_shared<f64>(0.0);
  options.now_ms = [fake_now] { return *fake_now += 10.0; };
  return options;
}

std::string tiny(u64 seed, const char* extra = "") {
  return "program=tpfa nx=4 ny=3 nz=2 iterations=1 seed=" +
         std::to_string(seed) + extra;
}

// --- admission control -----------------------------------------------------

TEST(ServeAdmissionTest, OverflowShedsTheIncomingEqualPriorityRequest) {
  ServiceOptions options = manual_options();
  options.queue_capacity = 2;
  ScenarioService service(options);
  const auto first = service.submit_line(tiny(1));
  const auto second = service.submit_line(tiny(2));
  // Same class as everything queued and strictly younger: the incoming
  // request itself is the victim, and the overflow is a recorded
  // response, not an exception.
  const ScenarioResponse shed = service.submit_line(tiny(3)).get();
  EXPECT_EQ(shed.status, RequestStatus::Shed);
  EXPECT_EQ(shed.error, "shed: queue overflow (capacity 2)");

  service.drain();
  EXPECT_TRUE(first.get().ok());
  EXPECT_TRUE(second.get().ok());
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(ServeAdmissionTest, InteractiveEvictsTheYoungestBatchJob) {
  ServiceOptions options = manual_options();
  options.queue_capacity = 2;
  ScenarioService service(options);
  const auto old_batch = service.submit_line(tiny(1));
  const auto young_batch = service.submit_line(tiny(2));
  const auto interactive =
      service.submit_line(tiny(3, " priority=interactive"));

  // The eviction resolves the victim's future immediately, before any
  // job runs: youngest of the least-important class loses.
  const ScenarioResponse evicted = young_batch.get();
  EXPECT_EQ(evicted.status, RequestStatus::Shed);
  EXPECT_EQ(evicted.error, "shed: queue overflow (capacity 2)");

  service.drain();
  EXPECT_TRUE(old_batch.get().ok());
  EXPECT_TRUE(interactive.get().ok());
  EXPECT_EQ(service.stats().shed, 1u);
}

TEST(ServeAdmissionTest, BackgroundNeverEvictsBatch) {
  ServiceOptions options = manual_options();
  options.queue_capacity = 1;
  ScenarioService service(options);
  const auto batch = service.submit_line(tiny(1));
  const ScenarioResponse shed =
      service.submit_line(tiny(2, " priority=background")).get();
  EXPECT_EQ(shed.status, RequestStatus::Shed);
  service.drain();
  EXPECT_TRUE(batch.get().ok());
}

TEST(ServeAdmissionTest, InteractiveRunsBeforeOlderBatchAndBackground) {
  ScenarioService service(manual_options());
  const auto background = service.submit_line(tiny(1, " priority=background"));
  const auto batch = service.submit_line(tiny(2));
  const auto interactive =
      service.submit_line(tiny(3, " priority=interactive"));
  service.drain();
  // All three complete; dispatch order shows up in the queue-time the
  // responses report under the +10 ms/observation clock.
  const ScenarioResponse i = interactive.get();
  const ScenarioResponse b = batch.get();
  const ScenarioResponse g = background.get();
  ASSERT_TRUE(i.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(g.ok());
  EXPECT_LT(i.queue_ms, b.queue_ms);
  EXPECT_LT(b.queue_ms, g.queue_ms);
}

TEST(ServeAdmissionTest, ShutdownShedsTheQueueWithARecordedError) {
  ScenarioService service(manual_options());
  const auto queued = service.submit_line(tiny(1));
  service.shutdown();
  const ScenarioResponse response = queued.get();
  EXPECT_EQ(response.status, RequestStatus::Shed);
  EXPECT_EQ(response.error, "service shutdown");
}

// --- deadlines -------------------------------------------------------------

TEST(ServeDeadlineTest, ExpiresInQueueWithRecordedError) {
  // Clock: submit observes t=10 (deadline at 15); dequeue observes t=20,
  // so the job is cancelled before execution with the queue time named.
  ScenarioService service(manual_options());
  const auto future = service.submit_line(tiny(1, " deadline-ms=5"));
  service.drain();
  const ScenarioResponse response = future.get();
  EXPECT_EQ(response.status, RequestStatus::DeadlineExpired);
  EXPECT_EQ(response.error, "deadline (5 ms) expired after 10 ms in queue");
  EXPECT_EQ(response.queue_ms, 10.0);
  EXPECT_EQ(service.stats().deadline_expired, 1u);
  // The deadline must not have reached the executor.
  EXPECT_EQ(service.stats().executor.simulations, 0u);
}

TEST(ServeDeadlineTest, CancelsImpesCleanlyBetweenWindows) {
  // Clock walk: submit t=10 (deadline at 35), dequeue t=20 (< 35, so
  // execution starts), window-1 check t=30 (< 35, keep going), window-2
  // check t=40 (expired). The job must stop at the window boundary with
  // the progress recorded — never an exception, never partial state.
  ScenarioService service(manual_options());
  const auto future = service.submit_line(
      "program=impes nx=4 ny=4 nz=3 seed=7 windows=3 dt=900 deadline-ms=25");
  service.drain();
  const ScenarioResponse response = future.get();
  EXPECT_EQ(response.status, RequestStatus::DeadlineExpired);
  EXPECT_EQ(response.error, "deadline exceeded after 2/3 windows");
  // The two completed windows' fabric accounting is preserved.
  EXPECT_GT(response.info.events_processed, 0u);
  EXPECT_EQ(service.stats().deadline_expired, 1u);
  EXPECT_EQ(service.stats().executor.simulations, 1u);
}

// --- checkpoint/restore ----------------------------------------------------

class ServeCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test and process: ctest runs the tests of this
    // fixture concurrently, and a shared directory let one test's
    // remove_all delete the other's checkpoints mid-run.
    const std::string test =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    dir_ = std::filesystem::temp_directory_path() /
           ("fluxwse_serve_ckpt_" + test + "_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Runs `scenario` (which checkpoints every 2 of its 4 windows) until
  /// its deadline expires after the window-2 checkpoint, then rewrites
  /// that checkpoint's meta line `key=...` to `key=value`, or drops it
  /// when `value` is empty. Returns the meta file's path.
  std::string craft_checkpoint(const std::string& scenario,
                               const std::string& key,
                               const std::optional<std::string>& value) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    ServiceOptions options = manual_options();
    options.checkpoint_dir = dir_.string();
    ScenarioService service(options);
    const auto seeded = service.submit_line(scenario + " deadline-ms=25");
    service.drain();
    EXPECT_EQ(seeded.get().status, RequestStatus::DeadlineExpired);
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      if (entry.path().extension() != ".meta") {
        continue;
      }
      std::ifstream in(entry.path());
      std::ostringstream crafted;
      std::string line;
      while (std::getline(in, line)) {
        if (line.rfind(key + "=", 0) != 0) {
          crafted << line << '\n';
        } else if (value.has_value()) {
          crafted << key << '=' << *value << '\n';
        }
      }
      in.close();
      std::ofstream(entry.path(), std::ios::binary | std::ios::trunc)
          << crafted.str();
      return entry.path().string();
    }
    ADD_FAILURE() << "no checkpoint meta was written";
    return {};
  }

  /// Resubmits `scenario` against the crafted checkpoint and expects a
  /// failure whose message names the meta file, the field and `says`;
  /// then that the failure deleted the checkpoint, so the next submit
  /// runs from window 0 and succeeds. A resume that never reaches its
  /// last window must fail the test, not hang it: the request's deadline
  /// stops one that steps past the last window, and the bounded wait one
  /// that re-enters window 0, which never looks at the deadline. On a
  /// timeout the service is leaked, since its worker cannot be joined.
  void expect_resume_fails(const std::string& scenario,
                           const std::string& meta, const std::string& key,
                           const std::string& says) {
    ServiceOptions options = manual_options();
    options.workers = 1;
    options.checkpoint_dir = dir_.string();
    auto service = std::make_unique<ScenarioService>(options);
    const auto finish = [&service](const std::string& line)
        -> std::optional<ScenarioResponse> {
      auto future = service->submit_line(line);
      if (future.wait_for(std::chrono::seconds(30)) !=
          std::future_status::ready) {
        (void)service.release();
        return std::nullopt;
      }
      return future.get();
    };
    const std::optional<ScenarioResponse> response =
        finish(scenario + " deadline-ms=500");
    ASSERT_TRUE(response.has_value()) << "the resume did not finish in 30 s";
    EXPECT_EQ(response->status, RequestStatus::Failed) << response->error;
    EXPECT_NE(response->error.find("checkpoint meta '" + meta + "'"),
              std::string::npos)
        << response->error;
    EXPECT_NE(response->error.find("field '" + key + "'"), std::string::npos)
        << response->error;
    EXPECT_NE(response->error.find(says), std::string::npos)
        << response->error;
    EXPECT_FALSE(response->resumed);
    EXPECT_EQ(service->stats().executor.resumes, 0u);
    EXPECT_EQ(checkpoint_files(), 0u)
        << "a checkpoint that failed to restore must not stay on disk";

    const std::optional<ScenarioResponse> resubmit = finish(scenario);
    ASSERT_TRUE(resubmit.has_value()) << "the resubmit did not finish in 30 s";
    EXPECT_TRUE(resubmit->ok()) << resubmit->error;
    EXPECT_FALSE(resubmit->resumed);
  }

  [[nodiscard]] usize checkpoint_files() const {
    usize count = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      (void)entry;
      ++count;
    }
    return count;
  }

  std::filesystem::path dir_;
};

TEST_F(ServeCheckpointTest, InterruptedJobResumesToTheIdenticalResult) {
  const std::string scenario =
      "program=impes nx=4 ny=4 nz=3 seed=7 windows=4 dt=900";

  // Reference: the same scenario run cold, uninterrupted, on a fresh
  // service with no checkpointing at all.
  std::string uninterrupted;
  {
    ScenarioService service(manual_options());
    const auto future = service.submit_line(scenario);
    service.drain();
    const ScenarioResponse response = future.get();
    ASSERT_TRUE(response.ok()) << response.error;
    uninterrupted = serialize_response(response);
  }

  ServiceOptions options = manual_options();
  options.checkpoint_dir = dir_.string();
  ScenarioService service(options);

  // First attempt: deadline at t=35 expires at the window-2 boundary
  // (same clock walk as CancelsImpesCleanlyBetweenWindows), after the
  // checkpoint at windows_done=2 was written.
  const auto interrupted_future =
      service.submit_line(scenario + " checkpoint-every=2 deadline-ms=25");
  service.drain();
  const ScenarioResponse interrupted = interrupted_future.get();
  EXPECT_EQ(interrupted.status, RequestStatus::DeadlineExpired);
  EXPECT_EQ(interrupted.error,
            "deadline exceeded after 2/4 windows (checkpoint covers the "
            "first 2)");
  EXPECT_EQ(checkpoint_files(), 3u)
      << "meta + saturation + pressure checkpoint files";
  EXPECT_EQ(service.stats().executor.checkpoints_saved, 1u);

  // Second attempt, no deadline: resumes from the checkpoint (2 of 4
  // windows already done), completes, and cleans the checkpoint up.
  const auto resumed_future =
      service.submit_line(scenario + " checkpoint-every=2");
  service.drain();
  const ScenarioResponse resumed = resumed_future.get();
  ASSERT_TRUE(resumed.ok()) << resumed.error;
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(service.stats().executor.resumes, 1u);
  EXPECT_EQ(checkpoint_files(), 0u)
      << "a completed job must not leave a stale resume point";

  // The acceptance bar: a restored job's response is byte-identical to
  // the uninterrupted cold run.
  EXPECT_EQ(serialize_response(resumed), uninterrupted);
}

TEST_F(ServeCheckpointTest, CheckpointOfADifferentScenarioIsNeverResumed) {
  // Run scenario A to its window-2 checkpoint, then craft the meta to
  // claim a different canonical content. A resubmit of A must detect the
  // mismatch and start from scratch rather than restore foreign state.
  const std::string scenario =
      "program=impes nx=4 ny=4 nz=3 seed=7 windows=4 dt=900 "
      "checkpoint-every=2";
  ServiceOptions options = manual_options();
  options.checkpoint_dir = dir_.string();
  ScenarioService service(options);
  const auto seeded = service.submit_line(scenario + " deadline-ms=25");
  service.drain();
  EXPECT_EQ(seeded.get().status, RequestStatus::DeadlineExpired);
  ASSERT_EQ(service.stats().executor.checkpoints_saved, 1u);

  const std::string foreign =
      "canonical=dt=900 fault_rate=0 fault_seed=1 iterations=9 nx=4 ny=4 "
      "nz=3 program=impes seed=7 tol=1.0000000000000001e-05\n"
      "windows_done=2\n";
  std::filesystem::path meta;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().extension() == ".meta") {
      meta = entry.path();
      std::ofstream(meta, std::ios::binary | std::ios::trunc) << foreign;
    }
  }

  // A resubmit that its deadline stops after window 1, before its own
  // first save, shows what the resume did: it left the other scenario's
  // checkpoint as it was (clock walk: deadline at submit + 15, the
  // window-1 check 20 later).
  const auto stopped = service.submit_line(scenario + " deadline-ms=15");
  service.drain();
  EXPECT_EQ(stopped.get().status, RequestStatus::DeadlineExpired);
  EXPECT_EQ(checkpoint_files(), 3u);
  std::ostringstream kept;
  kept << std::ifstream(meta).rdbuf();
  EXPECT_EQ(kept.str(), foreign);

  const auto retry = service.submit_line(scenario);
  service.drain();
  const ScenarioResponse response = retry.get();
  ASSERT_TRUE(response.ok()) << response.error;
  EXPECT_FALSE(response.resumed);
  EXPECT_EQ(service.stats().executor.resumes, 0u);
}

TEST_F(ServeCheckpointTest, ResumePointOutsideTheRunFailsNamingMetaAndField) {
  // A saved checkpoint lies between windows, so windows_done is in
  // [1, 3] for 4 windows. 99 would step past the last window forever;
  // 0 would resume restored state as if nothing ran; -1 would re-enter
  // the resume at 0 forever.
  const std::string scenario =
      "program=impes nx=4 ny=4 nz=3 seed=7 windows=4 dt=900 "
      "checkpoint-every=2";
  for (const char* value : {"99", "0", "-1"}) {
    SCOPED_TRACE(value);
    const std::string meta =
        craft_checkpoint(scenario, "windows_done", value);
    expect_resume_fails(scenario, meta, "windows_done",
                        std::string("= ") + value + " is outside [1, 3]");
  }
}

TEST_F(ServeCheckpointTest, MalformedCheckpointCounterFailsNamingMetaAndField) {
  const std::string scenario =
      "program=impes nx=4 ny=4 nz=3 seed=7 windows=4 dt=900 "
      "checkpoint-every=2";
  struct Case {
    const char* key;
    std::optional<std::string> value;
    const char* says;
  };
  const Case cases[] = {
      {"windows_done", "two", "has malformed value 'two'"},
      {"cg_iterations_total", "12x", "has malformed value '12x'"},
      {"cg_iterations_total", "-3", "= -3 is outside [0, "},
      {"transport_substeps_total", std::nullopt, "is missing"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.key);
    const std::string meta = craft_checkpoint(scenario, c.key, c.value);
    expect_resume_fails(scenario, meta, c.key, c.says);
  }
}

}  // namespace
}  // namespace fvf::serve
