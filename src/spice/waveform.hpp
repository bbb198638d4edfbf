// Source waveforms and waveform-measurement utilities.
//
// Sources drive characterization stimuli (ramps on cell inputs, DC rails).
// The measurement helpers extract the figures of merit PrimeLib-style
// characterization needs: threshold-crossing times, 10/90 transition times,
// and charge integrals for switching energy.
#pragma once

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

namespace cryo::spice {

// Piecewise-linear waveform; a DC source is a single point.
class Waveform {
 public:
  static Waveform dc(double value) { return Waveform({{0.0, value}}); }

  // Piecewise-linear through (time, value) points; clamps outside.
  static Waveform pwl(std::vector<std::pair<double, double>> points) {
    if (points.empty())
      throw std::invalid_argument("Waveform::pwl: no points");
    return Waveform(std::move(points));
  }

  // Single linear edge from v0 to v1 starting at `start` taking `ramp`.
  static Waveform ramp(double v0, double v1, double start, double ramp) {
    return pwl({{0.0, v0}, {start, v0}, {start + ramp, v1}});
  }

  // Periodic pulse train (used for clock stimuli in sequential arcs).
  static Waveform pulse(double v0, double v1, double delay, double rise,
                        double fall, double width, double period);

  double value(double t) const;

  // Next breakpoint strictly after time t (so the transient integrator can
  // land a step exactly on source corners); returns +inf when none.
  double next_breakpoint(double t) const;

  // True when `other` reads the same as this waveform up to time t:
  // value() gives the same bits at every time <= t, and next_breakpoint()
  // the same breakpoint up to t, or a later one in both. Non-periodic
  // waveforms agree when their points up to t are the same bits, both
  // have points after t, and the segment spanning t ends on t or is flat
  // in both; periodic ones only when identical. A transient resumed from
  // a checkpoint at t relies on this (Engine::transient).
  bool agrees_until(const Waveform& other, double t) const;
  // True when t is one of a non-periodic waveform's points.
  bool has_point_at(double t) const;

 private:
  explicit Waveform(std::vector<std::pair<double, double>> points)
      : points_(std::move(points)) {}

  std::vector<std::pair<double, double>> points_;
  // Pulse parameters (active when period_ > 0).
  double period_ = 0.0;
};

// A sampled signal produced by the transient engine.
struct Trace {
  std::vector<double> time;
  std::vector<double> value;

  // Linear-interpolated value at time t.
  double at(double t) const;
  // First time after `after` where the signal crosses `level` in the given
  // direction; returns negative if it never does.
  double cross(double level, bool rising, double after = 0.0) const;
  // Transition time between lo_frac and hi_frac of the (v0 -> v1) swing.
  double transition_time(double v0, double v1, double lo_frac,
                         double hi_frac) const;
  // Trapezoidal integral over the full trace.
  double integral() const;
};

}  // namespace cryo::spice
