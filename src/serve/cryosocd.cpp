// cryosocd — the long-running corner server.
//
// Speaks newline-delimited `cryosoc-req-v1` JSON on stdin and writes one
// `cryosoc-resp-v1` JSON line per request on stdout, in submission order.
// Requests are admitted into a FlowService over one shared CryoSocFlow,
// so concurrent identical queries coalesce, corners characterize at most
// once ever (fingerprinted Liberty artifacts under --lib-dir), and warm
// queries are served from the in-memory corner cache, which also keeps
// each corner's timing report (STA runs once per resident corner).
//
// Streaming: a writer thread emits each response as soon as it and every
// earlier response are complete, so a client may wait for each answer
// before it sends its next line. --window bounds the outstanding requests
// (read but not yet answered): at the bound the stdin reader blocks until
// the oldest answer is written, so independent requests overlap across
// workers while the output order stays exactly the input order. A
// malformed line or an admission rejection produces an ok=false response
// line (stages "request-parse" / "admission"; a corner whose temperature
// or vdd is not finite and > 0 is a parse error); the daemon itself never
// dies on bad input. A cold corner's timing and power answer as soon as
// the netlist's cells are characterized, while the rest of the catalog
// and the artifact finish in the background. On EOF it drains: every
// answer, then that background characterization, so each corner's
// artifact is on disk before it prints an obs summary to stderr and exits
// 0. Numeric flags take a whole number >= 1; a bad flag or value is a
// usage error (exit 2).
//
//   echo '{"schema":"cryosoc-req-v1","kind":"timing",
//          "corner":{"vdd":0.7,"temperature_k":10}}' | cryosocd
#include <charconv>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "core/error.hpp"
#include "core/flow.hpp"
#include "obs/metrics.hpp"
#include "serve/request.hpp"
#include "serve/service.hpp"

namespace {

using namespace cryo;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--lib-dir DIR] [--workers N] [--queue-capacity N]\n"
      "          [--window N] [--no-calibrate] [--interp-anchors T1,T2,...]\n"
      "Reads cryosoc-req-v1 JSON lines on stdin, writes cryosoc-resp-v1\n"
      "JSON lines on stdout in submission order, each as soon as it and\n"
      "every earlier one are answered.\n"
      "--window N: at most N requests outstanding (read, not yet\n"
      "answered); reading stdin pauses at the bound. Every N is a whole\n"
      "number >= 1.\n"
      "--interp-anchors: ascending temperatures (K). Only these corners\n"
      "characterize; every other requested temperature is served by a\n"
      "library interpolated between the bracketing anchors.\n",
      argv0);
  return 2;
}

// A whole decimal number >= 1 ("8", not "8x", "-2", "0" or "").
template <typename T>
bool parse_count(const char* text, T& out) {
  const char* end = text + std::strlen(text);
  T value{};
  const auto [stop, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || stop != end || value < 1) return false;
  out = value;
  return true;
}

serve::FlowResponse error_response(const std::string& id,
                                   const std::string& stage,
                                   const std::string& detail) {
  serve::FlowResponse response;
  response.ok = false;
  response.error_stage = stage;
  response.error = detail;
  response.meta.id = id;
  return response;
}

// The responses of admitted lines, in submission order. The stdin reader
// waits for room, then push()es each line's future; run(), on its own
// thread, writes each response as soon as it and every earlier one are
// complete. At most `window` requests are outstanding (pushed, not yet
// written).
class OrderedWriter {
 public:
  explicit OrderedWriter(std::size_t window) : window_(window) {}
  OrderedWriter(const OrderedWriter&) = delete;
  OrderedWriter& operator=(const OrderedWriter&) = delete;

  // Blocks while `window` requests are outstanding.
  void wait_for_room() {
    std::unique_lock<std::mutex> lock(mutex_);
    room_.wait(lock, [&] { return outstanding_ < window_; });
  }

  void push(std::string id,
            std::shared_future<serve::FlowResponse> response) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++outstanding_;
    queue_.emplace_back(std::move(id), std::move(response));
    ready_.notify_one();
  }

  // No more pushes: run() returns once everything pushed is written.
  void close() {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    ready_.notify_one();
  }

  void run() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
      ready_.wait(lock, [&] { return closed_ || !queue_.empty(); });
      if (queue_.empty()) return;
      auto [id, future] = std::move(queue_.front());
      queue_.pop_front();
      lock.unlock();
      serve::FlowResponse response = future.get();
      // Coalesced executions carry the first submitter's id; every client
      // still gets a response tagged with its own.
      response.meta.id = id;
      std::fputs(serve::to_json(response).dump_line().c_str(), stdout);
      std::fputc('\n', stdout);
      std::fflush(stdout);
      lock.lock();
      --outstanding_;
      room_.notify_one();
    }
  }

 private:
  const std::size_t window_;
  std::mutex mutex_;
  std::condition_variable ready_;  // queue_ non-empty or closed_
  std::condition_variable room_;   // outstanding_ < window_
  std::deque<std::pair<std::string, std::shared_future<serve::FlowResponse>>>
      queue_;
  std::size_t outstanding_ = 0;
  bool closed_ = false;
};

}  // namespace

int main(int argc, char** argv) {
  core::FlowConfig flow_config;
  serve::ServiceConfig service_config;
  std::size_t window = 64;

  const auto bad_count = [&](const std::string& flag, const char* value) {
    std::fprintf(stderr, "%s: %s takes a whole number >= 1 (got '%s')\n",
                 argv[0], flag.c_str(), value);
    return usage(argv[0]);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--lib-dir" && has_value) {
      flow_config.lib_dir = argv[++i];
    } else if (arg == "--workers" && has_value) {
      if (!parse_count(argv[++i], service_config.workers))
        return bad_count(arg, argv[i]);
    } else if (arg == "--queue-capacity" && has_value) {
      if (!parse_count(argv[++i], service_config.queue_capacity))
        return bad_count(arg, argv[i]);
    } else if (arg == "--window" && has_value) {
      if (!parse_count(argv[++i], window)) return bad_count(arg, argv[i]);
    } else if (arg == "--no-calibrate") {
      flow_config.calibrate_devices = false;
    } else if (arg == "--interp-anchors" && has_value) {
      // Comma-separated ascending anchor temperatures in kelvin; validated
      // (>= 2 anchors, strictly ascending) by CryoSocFlow's config check.
      const char* cursor = argv[++i];
      while (*cursor != '\0') {
        char* end = nullptr;
        const double t = std::strtod(cursor, &end);
        if (end == cursor) return usage(argv[0]);
        flow_config.interp_anchor_temps.push_back(t);
        cursor = (*end == ',') ? end + 1 : end;
        if (*end != '\0' && *end != ',') return usage(argv[0]);
      }
      if (flow_config.interp_anchor_temps.empty()) return usage(argv[0]);
    } else {
      return usage(argv[0]);
    }
  }

  std::unique_ptr<core::CryoSocFlow> flow;
  std::unique_ptr<serve::FlowService> service;
  try {
    flow = std::make_unique<core::CryoSocFlow>(flow_config);
    service = std::make_unique<serve::FlowService>(*flow, service_config);
  } catch (const core::FlowError& e) {
    std::fprintf(stderr, "%s: [%s] %s\n", argv[0], e.stage().c_str(),
                 e.detail().c_str());
    return 2;
  }

  OrderedWriter out(window);
  std::thread writer([&out] { out.run(); });
  std::uint64_t lines = 0;
  std::string line;
  while (std::getline(std::cin, line)) {
    ++lines;
    if (line.empty()) continue;
    out.wait_for_room();
    std::string id;
    std::shared_future<serve::FlowResponse> response;
    try {
      serve::FlowRequest request = serve::parse_request(line);
      id = request.id;
      response = service->submit(std::move(request));
    } catch (const core::FlowError& e) {
      std::promise<serve::FlowResponse> p;
      p.set_value(error_response(id, e.stage(), e.detail()));
      response = p.get_future().share();
    }
    out.push(std::move(id), std::move(response));
  }
  out.close();
  writer.join();
  service.reset();
  flow.reset();  // joins background characterization

  const auto count = [](const char* name) {
    return obs::registry().counter(name).value();
  };
  std::fprintf(stderr,
               "[cryosocd] %llu line(s): %llu executed, %llu coalesced, "
               "%llu rejected\n",
               static_cast<unsigned long long>(lines),
               static_cast<unsigned long long>(count("serve.executed")),
               static_cast<unsigned long long>(count("serve.coalesced")),
               static_cast<unsigned long long>(count("serve.rejected")));
  for (const serve::QueryKind kind : serve::kAllQueryKinds) {
    obs::Histogram& h = obs::registry().histogram(
        std::string("serve.latency.") + serve::kind_name(kind));
    if (h.count() == 0) continue;
    std::fprintf(stderr,
                 "[cryosocd]   %-14s n=%llu p50=%.3gs p95=%.3gs p99=%.3gs\n",
                 serve::kind_name(kind),
                 static_cast<unsigned long long>(h.count()), h.quantile(0.5),
                 h.quantile(0.95), h.quantile(0.99));
  }
  return 0;
}
