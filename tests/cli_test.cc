// slate_cli's numeric flags are strict: an empty, malformed, trailing-junk
// or out-of-range value is a usage error that exits with status 2 — never
// an uncaught exception (a signal) and never a silently wrapped value.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>

#include <string>
#include <vector>

extern char** environ;

namespace {

const std::string kScenario = std::string(SLATE_SOURCE_DIR) +
                              "/examples/scenarios/two_cluster_overload.slate";

// Runs slate_cli with `args` (output discarded); returns the wait status.
int run_cli(const std::vector<std::string>& args) {
  std::vector<std::string> argv_store = {SLATE_CLI_PATH};
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 2, "/dev/null", O_WRONLY, 0);
  pid_t pid = 0;
  const int rc =
      posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  EXPECT_EQ(rc, 0) << "cannot spawn " << argv[0];
  if (rc != 0) return -1;
  int status = 0;
  waitpid(pid, &status, 0);
  return status;
}

TEST(CliFlags, MalformedNumbersExitTwo) {
  for (const char* flag :
       {"--timeout=abc", "--timeout=", "--duration=1.5s", "--duration=nan",
        "--warmup=1e999", "--shards=-1", "--seed=99999999999999999999999",
        "--retries=2.5", "--jobs=+4", "--seeds= 3", "--admit=abc"}) {
    SCOPED_TRACE(flag);
    const int status = run_cli({kScenario, flag});
    ASSERT_TRUE(WIFEXITED(status)) << "killed by a signal";
    EXPECT_EQ(WEXITSTATUS(status), 2);
  }
}

TEST(CliFlags, WellFormedNumbersRun) {
  const int status =
      run_cli({kScenario, "--duration=2", "--warmup=1", "--seed=3",
               "--shards=0", "--timeout=0.5", "--retries=1", "--jobs=1"});
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

}  // namespace
