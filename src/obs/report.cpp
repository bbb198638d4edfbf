#include "obs/report.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "obs/metrics.hpp"

namespace cryo::obs {
namespace {

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void escape_into(std::string& out, const std::string& s) {
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
}

std::string git_describe() {
  FILE* pipe = popen("git describe --always --dirty 2>/dev/null", "r");
  if (!pipe) return "unknown";
  char buf[128] = {0};
  std::string out;
  while (std::fgets(buf, sizeof buf, pipe)) out += buf;
  pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == ' '))
    out.pop_back();
  return out.empty() ? "unknown" : out;
}

}  // namespace

Json Json::object() {
  Json j;
  j.kind_ = Kind::kObject;
  return j;
}

Json Json::array() {
  Json j;
  j.kind_ = Kind::kArray;
  return j;
}

Json Json::raw(std::string text) {
  Json j;
  j.kind_ = Kind::kRaw;
  j.str_ = std::move(text);
  return j;
}

Json& Json::operator[](const std::string& key) {
  if (kind_ == Kind::kNull) kind_ = Kind::kObject;
  for (auto& [k, v] : members_)
    if (k == key) return v;
  members_.emplace_back(key, Json());
  return members_.back().second;
}

Json& Json::push_back(Json v) {
  if (kind_ == Kind::kNull) kind_ = Kind::kArray;
  items_.push_back(std::move(v));
  return items_.back();
}

void Json::dump_into(std::string& out, int indent) const {
  const bool line = indent < 0;
  switch (kind_) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += bool_ ? "true" : "false"; break;
    case Kind::kInt: out += std::to_string(int_); break;
    case Kind::kUint:
      out += std::to_string(static_cast<unsigned long long>(int_));
      break;
    case Kind::kDouble: {
      // NaN and infinities have no JSON spelling; null keeps the document
      // parseable.
      if (!std::isfinite(num_)) {
        out += "null";
        break;
      }
      char buf[48];
      std::snprintf(buf, sizeof buf, "%.12g", num_);
      out += buf;
      break;
    }
    case Kind::kString:
      out += '"';
      escape_into(out, str_);
      out += '"';
      break;
    case Kind::kRaw: out += str_; break;
    case Kind::kArray:
    case Kind::kObject: {
      const bool object = kind_ == Kind::kObject;
      const std::size_t size = object ? members_.size() : items_.size();
      const int inner = line ? indent : indent + 1;
      out += object ? '{' : '[';
      for (std::size_t i = 0; i < size; ++i) {
        if (i) out += ',';
        if (!line) {
          out += '\n';
          out.append(static_cast<std::size_t>(inner) * 2, ' ');
        }
        if (object) {
          out += '"';
          escape_into(out, members_[i].first);
          out += line ? "\":" : "\": ";
          members_[i].second.dump_into(out, inner);
        } else {
          items_[i].dump_into(out, inner);
        }
      }
      if (!line && size > 0) {
        out += '\n';
        out.append(static_cast<std::size_t>(indent) * 2, ' ');
      }
      out += object ? '}' : ']';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_into(out, indent);
  return out;
}

std::string Json::dump_line() const { return dump(-1); }

std::string BenchReport::output_dir() {
  if (const char* dir = std::getenv("CRYOSOC_BENCH_DIR");
      dir != nullptr && *dir != '\0')
    return dir;
  return "bench-out";
}

BenchReport::BenchReport(std::string name)
    : name_(std::move(name)),
      results_(Json::object()),
      gates_(Json::array()),
      start_seconds_(steady_seconds()) {}

BenchReport::BenchReport(BenchReport&& other) noexcept
    : name_(std::move(other.name_)),
      results_(std::move(other.results_)),
      gates_(std::move(other.gates_)),
      failed_(other.failed_),
      threads_(other.threads_),
      written_(other.written_),
      start_seconds_(other.start_seconds_) {
  other.written_ = true;  // the moved-from shell must not write
}

BenchReport::~BenchReport() {
  if (!written_) write();
}

bool BenchReport::gate(const std::string& name, double value,
                       const std::string& op, double bound) {
  bool pass = false;
  if (op == "==") pass = value == bound;
  else if (op == "<") pass = value < bound;
  else if (op == "<=") pass = value <= bound;
  else if (op == ">") pass = value > bound;
  else if (op == ">=") pass = value >= bound;
  else throw std::invalid_argument("BenchReport::gate: unknown op '" + op +
                                   "' in gate " + name);
  pass = pass && std::isfinite(value);
  failed_ = failed_ || !pass;

  Json row = Json::object();
  row["name"] = name;
  row["value"] = value;
  row["op"] = op;
  row["bound"] = bound;
  row["pass"] = pass;
  gates_.push_back(std::move(row));
  std::printf("gate %-4s %s = %.6g (%s %.6g)\n", pass ? "ok" : "FAIL",
              name.c_str(), value, op.c_str(), bound);
  return pass;
}

std::string BenchReport::write() {
  if (written_) return {};
  written_ = true;

  const unsigned threads =
      threads_ > 0 ? threads_
                   : std::max(1u, std::thread::hardware_concurrency());

  Json doc = Json::object();
  doc["schema"] = "cryosoc-bench-v1";
  doc["bench"] = name_;
  doc["wall_seconds"] = steady_seconds() - start_seconds_;
  doc["threads"] = threads;
  doc["hardware_concurrency"] =
      std::max(1u, std::thread::hardware_concurrency());
  doc["git"] = git_describe();
  doc["results"] = std::move(results_);
  doc["gates"] = std::move(gates_);
  doc["metrics"] = Json::raw(registry().snapshot_json());

  const std::filesystem::path dir = output_dir();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = (dir / ("BENCH_" + name_ + ".json")).string();
  std::ofstream file(path, std::ios::binary);
  file << doc.dump() << "\n";
  if (!file) {
    std::fprintf(stderr, "[cryo::obs] failed to write %s\n", path.c_str());
    return {};
  }
  std::printf("wrote %s\n", path.c_str());
  return path;
}

}  // namespace cryo::obs
