// The DAQ's scalar reference pipeline, kept for the differential tests.
//
// One reading at a time, in sample order: the tape read through
// PowerTape::WattsAt, true watts to shunt volts, Gaussian noise and ADC
// quantisation on each channel, measured current times measured rail, and
// each sample's fault-drop decision interleaved right after its reading.
// Daq::SampleWindow restructures this loop into tape runs and SoA passes;
// its contract is to return these samples bit for bit
// (tests/hotpath/daq_soa_property_test.cc, tests/daq/block_variant_test.cc),
// so the expressions here are the specification and must not be reordered.

#ifndef TESTS_SUPPORT_REFERENCE_DAQ_H_
#define TESTS_SUPPORT_REFERENCE_DAQ_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/daq/daq.h"
#include "src/hw/power_tape.h"
#include "src/sim/rng.h"
#include "src/sim/time.h"

namespace dcs {

class FaultInjector;

namespace testing {

class ReferenceDaq {
 public:
  explicit ReferenceDaq(const DaqConfig& config = {});

  // Daq::SampleWindow's samples, computed one reading at a time.  The view
  // stays valid until the next call.
  std::span<const double> SampleWindow(const PowerTape& tape, SimTime begin, SimTime end);

  // As Daq::BindFaults.
  void BindFaults(FaultInjector* faults) { faults_ = faults; }
  std::uint64_t dropped_samples() const { return dropped_samples_; }

 private:
  // One power reading of true power `watts` through the ADC pipeline, with
  // per-channel noise sigmas (zero skips the draw).
  double ReadPower(double watts, double sigma_shunt, double sigma_supply);

  DaqConfig config_;
  Rng rng_;
  double shunt_lsb_;
  double supply_lsb_;
  FaultInjector* faults_ = nullptr;
  std::uint64_t dropped_samples_ = 0;
  std::vector<double> samples_;
  std::vector<std::size_t> dropped_;
};

}  // namespace testing
}  // namespace dcs

#endif  // TESTS_SUPPORT_REFERENCE_DAQ_H_
