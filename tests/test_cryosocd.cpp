// cryosocd as a client sees it: the built daemon in a child process,
// driven over its stdin/stdout pipes.
//
// A client that waits for each answer before it sends its next line must
// get that answer while stdin stays open (every read has a timeout, so a
// daemon that holds answers fails the test instead of hanging it).
// Pipelined lines come back in submission order under a small --window,
// bad numeric flags are usage errors, and the EOF summary on stderr keeps
// its format. Only `sram` queries are sent: they need the device models
// but no Liberty library, so the daemon answers in milliseconds.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "serve/request.hpp"

extern char** environ;

namespace cryo::serve {
namespace {

namespace fs = std::filesystem;

constexpr int kReadTimeoutMs = 15000;

// One cryosocd child: stdin and stdout are pipes, stderr goes to a file.
class Daemon {
 public:
  explicit Daemon(const std::vector<std::string>& flags)
      : stderr_path_(fs::path(::testing::TempDir()) /
                     ("cryosocd_" + std::to_string(::getpid()) + "_" +
                      std::to_string(++spawned_) + ".stderr")) {
    ::signal(SIGPIPE, SIG_IGN);  // a dead daemon fails a write, not us
    int in[2] = {-1, -1};
    int out[2] = {-1, -1};
    if (::pipe2(in, O_CLOEXEC) != 0 || ::pipe2(out, O_CLOEXEC) != 0)
      throw std::runtime_error("pipe2 failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, in[0], 0);
    posix_spawn_file_actions_adddup2(&actions, out[1], 1);
    posix_spawn_file_actions_addopen(&actions, 2, stderr_path_.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    std::vector<std::string> args = {CRYOSOCD_PATH};
    args.insert(args.end(), flags.begin(), flags.end());
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    const int rc = ::posix_spawn(&pid_, CRYOSOCD_PATH, &actions, nullptr,
                                 argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(in[0]);
    ::close(out[1]);
    in_ = in[1];
    out_ = out[0];
    if (rc != 0)
      throw std::runtime_error(std::string("posix_spawn: ") +
                               std::strerror(rc));
  }

  ~Daemon() {
    close_stdin();
    if (out_ >= 0) ::close(out_);
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    std::error_code ec;
    fs::remove(stderr_path_, ec);
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool send(const std::string& line) {
    const std::string bytes = line + "\n";
    std::size_t done = 0;
    while (done < bytes.size()) {
      const ssize_t n = ::write(in_, bytes.data() + done, bytes.size() - done);
      if (n <= 0) return false;
      done += static_cast<std::size_t>(n);
    }
    return true;
  }

  // The next stdout line, or nullopt on EOF or when none arrives within
  // the timeout.
  std::optional<std::string> read_line(int timeout_ms = kReadTimeoutMs) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (true) {
      if (const auto nl = buffer_.find('\n'); nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      pollfd p{out_, POLLIN, 0};
      if (left.count() <= 0 ||
          ::poll(&p, 1, static_cast<int>(left.count())) <= 0)
        return std::nullopt;
      char chunk[4096];
      const ssize_t n = ::read(out_, chunk, sizeof chunk);
      if (n <= 0) return std::nullopt;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  void close_stdin() {
    if (in_ >= 0) ::close(in_);
    in_ = -1;
  }

  // Exit code once the child ends (128 + signal when killed). A child
  // still running after the read timeout is killed.
  int wait() {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(kReadTimeoutMs);
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (std::chrono::steady_clock::now() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status)
                             : 128 + WTERMSIG(status);
  }

  std::string stderr_text() const {
    std::ifstream in(stderr_path_);
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
  }

 private:
  static inline int spawned_ = 0;
  fs::path stderr_path_;
  pid_t pid_ = -1;
  int in_ = -1;
  int out_ = -1;
  std::string buffer_;
};

std::vector<std::string> daemon_flags(std::vector<std::string> extra = {}) {
  // Only sram queries run, so the library directory is never read.
  std::vector<std::string> flags = {"--no-calibrate", "--workers", "2",
                                    "--lib-dir", "lib"};
  flags.insert(flags.end(), extra.begin(), extra.end());
  return flags;
}

// A distinct macro per index, so no two lines coalesce.
std::string sram_line(int i) {
  const FlowRequest request =
      sram_request(core::Corner{0.7, 300.0, ""}, {64 + 8 * i, 8 + (i % 4)},
                   "q" + std::to_string(i));
  return to_json(request).dump_line();
}

TEST(Cryosocd, AnswersEachLineBeforeTheNextIsSent) {
  Daemon daemon(daemon_flags());
  constexpr int kRoundTrips = 20;
  constexpr int kMalformed = 7;
  for (int i = 0; i < kRoundTrips; ++i) {
    ASSERT_TRUE(daemon.send(i == kMalformed
                                ? std::string(R"({"schema":"cryosoc-req-v1",)")
                                : sram_line(i)));
    const std::optional<std::string> line = daemon.read_line();
    ASSERT_TRUE(line.has_value())
        << "no response to round trip " << i << " within "
        << kReadTimeoutMs << " ms while stdin stays open";
    const FlowResponse response = parse_response(*line);
    if (i == kMalformed) {
      EXPECT_FALSE(response.ok);
      EXPECT_EQ(response.error_stage, "request-parse");
    } else {
      EXPECT_TRUE(response.ok) << response.error;
      EXPECT_EQ(response.meta.id, "q" + std::to_string(i));
    }
  }
  daemon.close_stdin();
  EXPECT_FALSE(daemon.read_line().has_value()) << "one line per request";
  EXPECT_EQ(daemon.wait(), 0);
  EXPECT_NE(daemon.stderr_text().find(
                "[cryosocd] 20 line(s): 19 executed, 0 coalesced, "
                "0 rejected\n"),
            std::string::npos)
      << daemon.stderr_text();
}

TEST(Cryosocd, PipelinedLinesComeBackInSubmissionOrder) {
  Daemon daemon(daemon_flags({"--window", "2"}));
  constexpr int kLines = 50;
  // 50 short lines fit the pipe, so they all go out before any read.
  for (int i = 0; i < kLines; ++i) ASSERT_TRUE(daemon.send(sram_line(i)));
  daemon.close_stdin();
  for (int i = 0; i < kLines; ++i) {
    const std::optional<std::string> line = daemon.read_line();
    ASSERT_TRUE(line.has_value()) << "response " << i << " missing";
    const FlowResponse response = parse_response(*line);
    EXPECT_TRUE(response.ok) << response.error;
    EXPECT_EQ(response.meta.id, "q" + std::to_string(i));
  }
  EXPECT_FALSE(daemon.read_line().has_value());
  EXPECT_EQ(daemon.wait(), 0);
  EXPECT_NE(daemon.stderr_text().find(
                "[cryosocd] 50 line(s): 50 executed, 0 coalesced, "
                "0 rejected\n"),
            std::string::npos)
      << daemon.stderr_text();
}

TEST(Cryosocd, BadNumericFlagsAreUsageErrors) {
  const std::vector<std::vector<std::string>> bad = {
      {"--window", "-1"},         {"--window", "0"},
      {"--window", "5x"},         {"--window", "99999999999999999999999"},
      {"--queue-capacity", "0"},  {"--queue-capacity", ""},
      {"--workers", "-2"},        {"--workers", "two"},
      {"--workers", "0"},         {"--window"},
  };
  for (const auto& flags : bad) {
    Daemon daemon(daemon_flags(flags));
    daemon.close_stdin();  // a daemon that accepted the flag exits 0 at EOF
    EXPECT_EQ(daemon.wait(), 2) << flags.front() << " " << flags.back();
    EXPECT_NE(daemon.stderr_text().find("usage:"), std::string::npos)
        << daemon.stderr_text();
  }
  // Anchors parse but are not physical temperatures: the flow's config
  // check refuses them before any request is read.
  for (const char* anchors : {"nan,10", "-5,10", "0,300"}) {
    Daemon daemon(daemon_flags({"--interp-anchors", anchors}));
    daemon.close_stdin();
    EXPECT_EQ(daemon.wait(), 2) << anchors;
    EXPECT_NE(daemon.stderr_text().find("[config]"), std::string::npos)
        << daemon.stderr_text();
  }
}

}  // namespace
}  // namespace cryo::serve
