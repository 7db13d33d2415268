// Fleet-scale campaigns: a million simulated devices on one box.
//
// A fleet is N devices that share a handful of *cells* — (app, governor,
// quantized config variant) combinations — but diverge per device through
// seeded jitter.  Simulating each device from t=0 wastes almost all of the
// work on re-running identical warmups, and materializing a result struct
// per device wastes almost all of the memory.  The fleet layer fixes both:
//
//   * Snapshot/clone forking.  Each shard job builds ONE DeviceSim for its
//     cell, runs it to the warmup point, snapshots the complete device image
//     (src/exp/device_sim.h), then cycles: LoadState the image, apply the
//     device's divergence (Kernel::ForkRngs(device_id) plus battery-capacity
//     jitter via Battery::SetParams), run to the horizon, fold the device
//     into the shard aggregate.  The restore path is allocation-free in
//     steady state (tests/hotpath/alloc_steadystate_test.cc), so a worker
//     clones devices at memcpy speed instead of event-loop speed.
//
//   * Sharded execution over the sweep engine.  The fleet spec expands
//     lazily into shards of `shard_devices` contiguous device ids; each
//     shard is one SweepRunner job (via SweepJobHooks::execute), so shards
//     get the watchdog, bounded retry + quarantine, and the CRC-framed
//     resume journal for free.  Per-device results are never
//     materialized — a shard returns one ExperimentResult whose metrics
//     registry carries the shard aggregate, which is exactly what the
//     journal persists.
//
//   * Exact streaming statistics.  Shard aggregates are integer-valued all
//     the way down: device energy is rounded once to microjoules, times to
//     integer values, and every histogram observation is an integer-valued
//     double (integer sums below 2^53 add exactly in any order).  Squared
//     energy uses a 128-bit sum split across two u64 counters.  Merging is
//     therefore associative and commutative, so the fleet report is
//     byte-identical across --threads, shard sizes and merge order
//     (tests/exp/fleet_merge_test.cc holds the property).
//
// Determinism contract: device `i`'s trajectory is a pure function of
// (cell image, global device id) — never of the shard layout.  Cell warmup
// seeds derive from the fleet seed and cell index; per-device divergence
// derives from Rng::Fork(device_id) off fleet-level streams.

#ifndef SRC_EXP_FLEET_H_
#define SRC_EXP_FLEET_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/exp/experiment.h"
#include "src/exp/sweep.h"
#include "src/obs/metrics.h"
#include "src/sim/time.h"

namespace dcs {

// Per-device divergence distributions, all seeded off the fleet seed.
struct FleetJitter {
  // Half-width of a uniform relative jitter on the battery's Peukert
  // capacity: device capacity = nominal * (1 + U[-j, +j)).  Applied per
  // device at fork time through Battery::SetParams (charge state is a
  // capacity fraction, so the shared warmup image carries over).
  double battery_capacity = 0.0;
  // Arrival-rate jitter for server cells, quantized into `arrival_variants`
  // cells whose rate_rps is scaled by factors spread uniformly over
  // (1 - j, 1 + j).  Quantized rather than per-device because the arrival
  // schedule is part of the warmup image.
  double arrival_rate = 0.0;
  int arrival_variants = 1;
};

// One app in the fleet's application mix; devices are apportioned by weight.
struct FleetAppMix {
  std::string app;
  double weight = 1.0;
};

struct FleetSpec {
  // Total devices across the whole fleet.
  std::uint64_t devices = 1000;
  // Devices per shard (= per sweep job / journal record).  Smaller shards
  // resume at finer granularity; larger shards amortize the warmup better.
  std::uint64_t shard_devices = 256;
  // Master seed: cell warmups and per-device jitter all derive from it.
  std::uint64_t seed = 1;
  // Application mix (empty: base.app with weight 1).
  std::vector<FleetAppMix> apps;
  // Everything else about a device: governor, itsy/kernel/daq config,
  // faults.  `base.app`, `.seed` and `.duration` are overridden per cell;
  // `.server->rate_rps` is scaled for arrival variants.
  ExperimentConfig base;
  // Snapshot point: the shared prefix every device in a cell rides through
  // the image instead of re-simulating.  Zero snapshots right after Start().
  SimTime warmup;
  // Per-device horizon (must exceed warmup).
  SimTime duration = SimTime::Seconds(20);
  FleetJitter jitter;
  // When nonempty, each executed shard also writes per-device rows to
  // "<prefix>.shard<k>.csv" (device_id, app, energy_uj, deadline totals,
  // death time).  Off by default — a million-device fleet wants aggregates,
  // not a million files of artifacts.  Replayed (journal-resumed) shards do
  // not rewrite their files.
  std::string per_device_out;
};

// One cell: a contiguous block of device ids sharing an exact warmup image.
struct FleetCell {
  std::string app;
  double rate_scale = 1.0;   // arrival-variant factor (server cells)
  std::uint64_t first_device = 0;
  std::uint64_t count = 0;
  std::uint64_t cell_seed = 0;  // warmup seed (pure function of fleet seed + cell index)
};

// One shard: a contiguous slice of one cell, executed as one sweep job.
struct FleetShard {
  int cell = 0;
  std::uint64_t first_device = 0;
  std::uint64_t count = 0;
};

// Fleet outcome: exact integer aggregates plus derived summary statistics.
struct FleetReport {
  std::uint64_t devices = 0;   // devices actually aggregated
  std::uint64_t shards = 0;
  std::uint64_t replayed_shards = 0;
  std::uint64_t executed_shards = 0;
  std::uint64_t failed_shards = 0;    // quarantined; their devices are missing
  std::uint64_t missing_devices = 0;

  // Energy per device, derived from the exact microjoule sums.
  double energy_mean_j = 0.0;
  double energy_stddev_j = 0.0;

  std::uint64_t deadline_events = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t deadline_rejected = 0;
  std::uint64_t deadline_shed = 0;
  double miss_rate = 0.0;

  std::uint64_t battery_deaths = 0;
  double death_fraction = 0.0;
  // Battery-death time curve quantiles (seconds; 0 when nobody died).
  double death_time_p50_s = 0.0;
  double death_time_p95_s = 0.0;

  std::uint64_t quanta = 0;
  std::uint64_t clock_changes = 0;

  // The merged fleet.* instruments (counters + histograms; see fleet.cc for
  // the schema), for callers that want the full curves.
  MetricsRegistry merged;
};

// Deterministic JSON rendering of a report (byte-identical across thread
// counts and shard sizes for the same spec — the fleet_scale bench and the
// CI resume check compare these bytes directly).
std::string RenderFleetJson(const FleetReport& report);

class FleetRunner {
 public:
  // `options.campaign` controls resume/watchdog/retry exactly as for a
  // config-grid sweep; `options.threads` is the worker count.
  FleetRunner(FleetSpec spec, SweepOptions options);

  // Expands the spec into cells and shards (cheap; no simulation).  Exposed
  // for tests; Run() calls it implicitly.
  void Plan();
  const std::vector<FleetCell>& cells() const { return cells_; }
  const std::vector<FleetShard>& shards() const { return shards_; }

  // Runs (or resumes) the fleet and folds every shard aggregate into the
  // report.  Throws std::invalid_argument on an unusable spec.
  FleetReport Run();

  // The body of one shard job: warm up the cell, then clone/run/aggregate
  // each device in the shard.  Exposed for the differential tests; `config`
  // must be a shard config produced by Plan() (its seed keys the shard).
  ExperimentResult RunShard(const ExperimentConfig& config) const;

 private:
  // The sweep grid config for shard s (seed = first device id keys the
  // shard; the rest mirrors the cell so journal fingerprints track the spec).
  ExperimentConfig ShardConfig(const FleetShard& shard) const;

  FleetSpec spec_;
  SweepOptions options_;
  std::vector<FleetCell> cells_;
  std::vector<FleetShard> shards_;
  // Fleet-identity mix: shard s's grid config carries seed_base_ +
  // first_device, which keys the shard back out of the config in RunShard.
  std::uint64_t seed_base_ = 0;
  std::map<std::uint64_t, std::size_t> shard_by_seed_;
};

}  // namespace dcs

#endif  // SRC_EXP_FLEET_H_
