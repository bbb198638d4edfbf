// Unified bench reporter: every bench/ target funnels its headline numbers
// through obs::BenchReport so the perf trajectory is machine-readable with
// ONE schema instead of seventeen ad-hoc printf formats.
//
//   auto report = obs::BenchReport("fig7_scaling");
//   report.results()["crossover_qubits"] = 1500.0;
//   report.write();  // bench-out/BENCH_fig7_scaling.json
//
// Emitted schema (cryosoc-bench-v1):
//   {
//     "schema": "cryosoc-bench-v1",
//     "bench": "<name>",
//     "wall_seconds": <construction -> write>,
//     "threads": <resolved worker count>,
//     "hardware_concurrency": <cores>,
//     "git": "<git describe --always --dirty, or \"unknown\">",
//     "results": { ...bench-specific numbers... },
//     "gates": [ {"name", "value", "op", "bound", "pass"}, ... ],
//     "metrics": { ...obs::Registry snapshot... }
//   }
//
// A bench states each pass/fail check on its numbers once, as a gate:
//
//   report.gate("events_per_sec", events_per_sec, ">=", 20000);
//   return report.exit_code();  // 1 iff any gate failed
//
// `gates` is an empty array in a bench that records none.
//
// Output directory: $CRYOSOC_BENCH_DIR, else ./bench-out (created on
// demand). The destructor writes if write() was never called, so a bench
// that exits early still leaves a report.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace cryo::obs {

// Minimal ordered JSON value: enough to render bench results. Insertion
// order is preserved so reports diff cleanly between runs.
class Json {
 public:
  Json() : kind_(Kind::kNull) {}
  Json(bool v) : kind_(Kind::kBool), bool_(v) {}
  Json(double v) : kind_(Kind::kDouble), num_(v) {}
  Json(int v) : kind_(Kind::kInt), int_(v) {}
  Json(long v) : kind_(Kind::kInt), int_(v) {}
  Json(long long v) : kind_(Kind::kInt), int_(v) {}
  // Unsigned values keep their own kind (in int_'s bits), so a count of
  // 2^63 or more renders exactly instead of wrapping negative.
  Json(unsigned v) : kind_(Kind::kUint), int_(v) {}
  Json(unsigned long v) : kind_(Kind::kUint), int_(static_cast<long long>(v)) {}
  Json(unsigned long long v)
      : kind_(Kind::kUint), int_(static_cast<long long>(v)) {}
  Json(const char* v) : kind_(Kind::kString), str_(v) {}
  Json(std::string v) : kind_(Kind::kString), str_(std::move(v)) {}

  static Json object();
  static Json array();
  // Embeds pre-rendered JSON text verbatim (e.g. a registry snapshot).
  static Json raw(std::string text);

  // Object access; inserts a null member on first use. Converts a null
  // value into an object, so report.results()["a"]["b"] = 1 just works.
  Json& operator[](const std::string& key);
  // Array append. Converts a null value into an array.
  Json& push_back(Json v);

  // Pretty rendering, two spaces per nesting level starting at `indent`;
  // a negative indent selects the single-line form. Non-finite doubles
  // render as null.
  std::string dump(int indent = 0) const;
  // Single-line rendering (no whitespace) for NDJSON streams; same member
  // order and number formatting as dump(). Equivalent to dump(-1).
  std::string dump_line() const;

 private:
  enum class Kind { kNull, kBool, kInt, kUint, kDouble, kString, kArray,
                    kObject, kRaw };
  void dump_into(std::string& out, int indent) const;

  Kind kind_;
  bool bool_ = false;
  long long int_ = 0;
  double num_ = 0.0;
  std::string str_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

class BenchReport {
 public:
  explicit BenchReport(std::string name);
  ~BenchReport();
  BenchReport(BenchReport&& other) noexcept;
  BenchReport& operator=(BenchReport&&) = delete;
  BenchReport(const BenchReport&) = delete;

  // Bench-specific payload; fill freely before write().
  Json& results() { return results_; }

  // Resolved worker-thread count recorded in the report (benches pass
  // exec::thread_count(); defaults to hardware concurrency).
  void set_threads(unsigned threads) { threads_ = threads; }

  // Checks `value op bound` (op is one of ==, <, <=, >, >=; anything else
  // throws std::invalid_argument), appends {name, value, op, bound, pass}
  // to the report's `gates` array, prints one line, and returns pass. A
  // NaN or infinite value fails under every op. Call it before write().
  bool gate(const std::string& name, double value, const std::string& op,
            double bound);

  // A bench's exit status: 1 if any gate failed, else 0.
  int exit_code() const { return failed_ ? 1 : 0; }

  // Renders the report to <dir>/BENCH_<name>.json and returns the path.
  // Idempotent: the second call (or the destructor) is a no-op.
  std::string write();

  // The directory reports land in: $CRYOSOC_BENCH_DIR or "bench-out".
  static std::string output_dir();

 private:
  std::string name_;
  Json results_;
  Json gates_;
  bool failed_ = false;
  unsigned threads_ = 0;
  bool written_ = false;
  double start_seconds_ = 0.0;
};

}  // namespace cryo::obs
