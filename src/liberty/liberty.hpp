// Liberty (.lib) writer and reader.
//
// Serializes a charlib::Library into the industry-standard Liberty format
// (the paper's characterization flow emits exactly this) and parses it
// back, so characterized libraries can be shipped as artifacts and loaded
// by downstream tools without re-running SPICE.
//
// Units written: time ns, capacitance pF, energy pJ (internal_power
// tables), leakage nW, voltage V. The reader converts back to SI.
//
// The subset implemented covers what this stack emits: lu_table_templates,
// cells with area / cell_leakage_power / leakage_power groups, input pins
// with capacitance, output pins with timing() groups (cell_rise/cell_fall,
// rise_transition/fall_transition, internal_power rise_power/fall_power),
// ff groups with setup/hold, and the catalog metadata this stack needs to
// reconstruct CellDef (function strings are emitted for documentation; the
// reader rebuilds cell functions from the catalog by base name).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "charlib/library.hpp"

namespace cryo::liberty {

// Serializes the library to Liberty text.
std::string write(const charlib::Library& library);

// Writes to a file; throws core::FlowError (stage "liberty-io", a
// std::runtime_error) on I/O failure.
void write_file(const charlib::Library& library, const std::string& path);

// Parses Liberty text produced by write(), in one pass that builds the
// Library as its groups close; unknown attributes and groups are checked
// for syntax and skipped.
//
// Numbers are read with std::from_chars, which is correctly rounded, so
// every number write() emits reads back to the same bits strtod gives.
// A number must be one whole token (or one whole entry of a quoted list)
// and finite: `1.5abc`, `+1`, `1e999` and `inf` are errors.
//
// Any malformed input throws std::runtime_error naming its line: bad
// syntax, a bad number, a cell name that is not the catalog's
// BASE_X<drive>[_SLVT] with a drive of 1..64, a grid that is empty or not
// strictly increasing, a cell before lu_table_template, a pin's timing()
// before its direction, or groups nested more than 16 deep (the subset
// nests six, library to rise_power). Malformed input throws nothing else.
charlib::Library parse(const std::string& text);

// Reads a Liberty file with one read and parses it. I/O failures throw
// core::FlowError with stage "liberty-io"; malformed content throws stage
// "liberty-parse" carrying parse()'s line-numbered message and the path.
charlib::Library read_file(const std::string& path);

// Rounds every number the artifact stores to exactly the value it stores:
// temperature, vdd, the slew/load grids, area, leakage states and their
// average, pin caps, setup/hold, and each table's values and axes. Each is
// formatted as write() formats it and read back as parse() reads it, so
// afterwards every one of them has the bits parse(write(library)) gives,
// and write() renders the same bytes as before. A library parse() built
// is left unchanged. Non-finite values are left as they are (parse()
// rejects them). Throws std::invalid_argument when two points of a
// table's axis round to one value.
//
// Only this module knows the artifact's precision: a freshly
// characterized library is rounded with this before anything reads it,
// so a process that characterized a corner answers from the same numbers
// as one that loads the corner's artifact.
void round_to_artifact(charlib::Library& library);

// ---- Artifact manifest sidecars ----------------------------------------
//
// A characterized .lib artifact carries a sidecar manifest
// (`<path>.manifest`) recording a fingerprint of every input that
// determined its content. Consumers (core::CryoSocFlow) reuse the artifact
// only when the fingerprint matches the current configuration; a stale or
// absent manifest forces re-characterization. Format (line-oriented text):
//
//   cryosoc-liberty-manifest v1
//   fingerprint <16 hex digits>
//   field <key> <value>
//   ...
//
// The `field` lines are informational (they let a human see *which* input
// moved); matching is on the fingerprint alone.
struct Manifest {
  std::uint64_t fingerprint = 0;
  std::vector<std::pair<std::string, std::string>> fields;
  // Arc labels the characterizer had to quarantine (empty for a clean
  // run). A manifest with entries here marks an incomplete artifact:
  // the store treats it as permanently stale.
  std::vector<std::string> quarantined;
};

// Sidecar path of a Liberty artifact: `<lib_path>.manifest`.
std::string manifest_path(const std::string& lib_path);

// Writes the sidecar next to `lib_path`; throws on I/O failure.
void write_manifest(const std::string& lib_path, const Manifest& manifest);

// Reads the sidecar of `lib_path`; nullopt when missing or malformed
// (both mean "do not trust the artifact").
std::optional<Manifest> read_manifest(const std::string& lib_path);

}  // namespace cryo::liberty
