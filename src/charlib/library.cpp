#include "charlib/library.hpp"

#include <stdexcept>

namespace cryo::charlib {

double CellChar::pin_cap(const std::string& pin) const {
  for (const auto& [name, cap] : pin_caps)
    if (name == pin) return cap;
  throw std::out_of_range("CellChar::pin_cap: unknown pin " + pin +
                          " on " + def.name);
}

double CellChar::worst_delay(double slew, double load) const {
  double worst = 0.0;
  for (const auto& arc : arcs)
    worst = std::max(worst, arc.delay.lookup(slew, load));
  return worst;
}

const CellChar* Library::find(const std::string& cell_name) const {
  for (const auto& cell : cells)
    if (cell.def.name == cell_name) return &cell;
  return nullptr;
}

const CellChar& Library::at(const std::string& cell_name) const {
  const CellChar* cell = find(cell_name);
  if (cell == nullptr)
    throw std::out_of_range("Library::at: unknown cell " + cell_name);
  return *cell;
}

CellIndex::CellIndex(const Library& library) {
  cells_.reserve(library.cells.size());
  for (const auto& cell : library.cells) cells_.emplace(cell.def.name, &cell);
}

const CellChar& CellIndex::at(const std::string& cell_name) const {
  const auto it = cells_.find(cell_name);
  if (it == cells_.end())
    throw std::out_of_range("Library::at: unknown cell " + cell_name);
  return *it->second;
}

}  // namespace cryo::charlib
