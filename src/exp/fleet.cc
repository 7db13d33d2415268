#include "src/exp/fleet.h"

#include <cmath>
#include <cstddef>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "src/exp/atomic_io.h"
#include "src/exp/device_sim.h"
#include "src/sim/rng.h"
#include "src/sim/simulator.h"
#include "src/sim/snapshot.h"

namespace dcs {
namespace {

// 128-bit accumulator for the squared-energy sum (1e6 devices at ~1e7 uJ
// each squared overflows 64 bits).  GCC/Clang builtin; split across two u64
// counters for the journal.
__extension__ typedef unsigned __int128 U128;

// splitmix64 finalizer: seed derivation for cells and jitter streams.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Jitter stream tags (arbitrary constants, fixed forever for determinism).
constexpr std::uint64_t kBatteryJitterTag = 0xba77e21fULL;

// Exact per-shard aggregate.  Every field is integer-valued (histograms
// observe pre-rounded integers), so folding shards is associative and
// commutative — the basis of the byte-identity contract.
struct ShardAggregate {
  std::uint64_t devices = 0;
  std::uint64_t energy_uj = 0;
  U128 energy_uj_sq = 0;
  std::uint64_t deadline_events = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t deadline_rejected = 0;
  std::uint64_t deadline_shed = 0;
  std::uint64_t battery_deaths = 0;
  std::uint64_t quanta = 0;
  std::uint64_t clock_changes = 0;
  LogHistogram device_energy_uj;
  LogHistogram battery_death_s;

  void ExportTo(MetricsRegistry* m) const {
    m->Counter("fleet.devices").Inc(devices);
    m->Counter("fleet.energy_uj").Inc(energy_uj);
    m->Counter("fleet.energy_uj_sq_hi").Inc(static_cast<std::uint64_t>(energy_uj_sq >> 64));
    m->Counter("fleet.energy_uj_sq_lo").Inc(static_cast<std::uint64_t>(energy_uj_sq));
    m->Counter("fleet.deadline_events").Inc(deadline_events);
    m->Counter("fleet.deadline_misses").Inc(deadline_misses);
    m->Counter("fleet.deadline_rejected").Inc(deadline_rejected);
    m->Counter("fleet.deadline_shed").Inc(deadline_shed);
    m->Counter("fleet.battery_deaths").Inc(battery_deaths);
    m->Counter("fleet.quanta").Inc(quanta);
    m->Counter("fleet.clock_changes").Inc(clock_changes);
    m->Histogram("fleet.device_energy_uj").MergeFrom(device_energy_uj);
    m->Histogram("fleet.battery_death_s").MergeFrom(battery_death_s);
  }
};

std::uint64_t CounterOf(const MetricsRegistry& m, const std::string& name) {
  const MetricsCounter* c = m.FindCounter(name);
  return c == nullptr ? 0 : c->value();
}

// Pairwise tree reduction of the shard registries.  Integer aggregates make
// any merge order exact; the tree shape keeps the fold O(log n) deep and
// mirrors how a distributed reducer would combine shard files.
void MergeRange(const std::vector<const MetricsRegistry*>& shards, std::size_t lo,
                std::size_t hi, MetricsRegistry* out) {
  if (hi - lo == 1) {
    out->MergeFrom(*shards[lo]);
    return;
  }
  const std::size_t mid = lo + (hi - lo) / 2;
  MetricsRegistry left;
  MetricsRegistry right;
  MergeRange(shards, lo, mid, &left);
  MergeRange(shards, mid, hi, &right);
  out->MergeFrom(left);
  out->MergeFrom(right);
}

}  // namespace

FleetRunner::FleetRunner(FleetSpec spec, SweepOptions options)
    : spec_(std::move(spec)), options_(std::move(options)) {}

void FleetRunner::Plan() {
  cells_.clear();
  shards_.clear();
  if (spec_.devices == 0) {
    throw std::invalid_argument("fleet: devices must be > 0");
  }
  if (spec_.shard_devices == 0) {
    throw std::invalid_argument("fleet: shard_devices must be > 0");
  }
  if (!(spec_.warmup < spec_.duration)) {
    throw std::invalid_argument("fleet: warmup must be < duration");
  }
  if (spec_.jitter.arrival_variants < 1) {
    throw std::invalid_argument("fleet: arrival_variants must be >= 1");
  }

  std::vector<FleetAppMix> apps = spec_.apps;
  if (apps.empty()) {
    apps.push_back({spec_.base.app, 1.0});
  }
  double total_weight = 0.0;
  for (const FleetAppMix& mix : apps) {
    if (!(mix.weight > 0.0)) {
      throw std::invalid_argument("fleet: app weights must be > 0");
    }
    total_weight += mix.weight;
  }

  // Apportion devices to apps by cumulative-boundary rounding: app k owns
  // [floor(N * W_{k-1} / W), floor(N * W_k / W)).  Deterministic, sums to N,
  // and independent of the shard size.
  const double n = static_cast<double>(spec_.devices);
  double cum_weight = 0.0;
  std::uint64_t block_begin = 0;
  for (const FleetAppMix& mix : apps) {
    cum_weight += mix.weight;
    const std::uint64_t block_end =
        static_cast<std::uint64_t>(std::floor(n * (cum_weight / total_weight)));
    const std::uint64_t block = block_end - block_begin;
    // Arrival-rate variants quantize only server cells (the arrival schedule
    // is part of the warmup image, so rate jitter cannot be per-device).
    const int variants =
        mix.app == "server" && spec_.jitter.arrival_rate > 0.0 ? spec_.jitter.arrival_variants : 1;
    std::uint64_t variant_begin = block_begin;
    for (int v = 0; v < variants; ++v) {
      const std::uint64_t variant_end =
          block_begin + (block * static_cast<std::uint64_t>(v + 1)) /
                            static_cast<std::uint64_t>(variants);
      FleetCell cell;
      cell.app = mix.app;
      // Bin-center factors spread over (1 - j, 1 + j); exactly 1 for V = 1.
      cell.rate_scale =
          variants == 1 ? 1.0
                        : 1.0 + spec_.jitter.arrival_rate *
                                    ((2.0 * v + 1.0) / static_cast<double>(variants) - 1.0);
      cell.first_device = variant_begin;
      cell.count = variant_end - variant_begin;
      cell.cell_seed = Mix(spec_.seed ^ Mix(static_cast<std::uint64_t>(cells_.size()) + 1));
      cells_.push_back(cell);
      variant_begin = variant_end;
    }
    block_begin = block_end;
  }

  for (std::size_t c = 0; c < cells_.size(); ++c) {
    const FleetCell& cell = cells_[c];
    for (std::uint64_t off = 0; off < cell.count; off += spec_.shard_devices) {
      FleetShard shard;
      shard.cell = static_cast<int>(c);
      shard.first_device = cell.first_device + off;
      shard.count = std::min(spec_.shard_devices, cell.count - off);
      shards_.push_back(shard);
    }
  }

  // Shard-config seeds: a fleet-identity mix (seed, horizon, warmup, jitter)
  // plus the shard's first device id.  Unique per shard — device blocks are
  // disjoint — and different fleets get different grid fingerprints, so a
  // journal written for one fleet can never replay into another.
  std::uint64_t identity = Mix(spec_.seed);
  identity = Mix(identity ^ static_cast<std::uint64_t>(spec_.warmup.nanos()));
  identity = Mix(identity ^ static_cast<std::uint64_t>(spec_.duration.nanos()));
  identity = Mix(identity ^ static_cast<std::uint64_t>(spec_.jitter.battery_capacity * 1e9));
  identity = Mix(identity ^ static_cast<std::uint64_t>(spec_.jitter.arrival_rate * 1e9));
  seed_base_ = identity;
}

ExperimentConfig FleetRunner::ShardConfig(const FleetShard& shard) const {
  const FleetCell& cell = cells_[static_cast<std::size_t>(shard.cell)];
  ExperimentConfig config = spec_.base;
  config.app = cell.app;
  config.duration = spec_.duration;
  config.seed = seed_base_ + shard.first_device;
  if (cell.app == "server") {
    if (!config.server.has_value()) {
      config.server.emplace();
    }
    config.server->rate_rps *= cell.rate_scale;
    // Arrivals span the whole horizon; the spec duration is the authority.
    config.server->duration = spec_.duration;
  }
  return config;
}

ExperimentResult FleetRunner::RunShard(std::size_t index, const ExperimentConfig& config) const {
  const FleetShard& shard = shards_[index];
  const FleetCell& cell = cells_[static_cast<std::size_t>(shard.cell)];

  // The cell's device stack: seeded by the cell (never the shard), so every
  // shard of a cell warms up into the identical image and device
  // trajectories cannot depend on the shard layout.
  ExperimentConfig dev_config = ShardConfig(shard);
  dev_config.seed = cell.cell_seed;
  dev_config.cancel = config.cancel;
  dev_config.arena = config.arena;

  DeviceSim dev(dev_config, DeviceSim::Reads::kFleetTotals);
  dev.Start();
  dev.RunUntil(spec_.warmup);
  if (dev.sim().CancelRequested()) {
    throw CancelledError("fleet shard cancelled during warmup");
  }
  SnapshotWriter image;
  dev.SaveState(&image);

  const Rng battery_jitter_base(Mix(spec_.seed ^ kBatteryJitterTag));
  const bool jitter_battery =
      spec_.jitter.battery_capacity > 0.0 && dev_config.itsy.battery.has_value();

  ShardAggregate agg;
  std::string per_device_rows;
  const bool want_rows = !spec_.per_device_out.empty();

  for (std::uint64_t d = 0; d < shard.count; ++d) {
    const std::uint64_t device_id = shard.first_device + d;
    SnapshotReader reader(image);
    dev.LoadState(&reader);
    if (!reader.ok()) {
      throw std::runtime_error("fleet: device image failed to restore");
    }
    // Divergence: a pure function of (image, global device id).
    dev.kernel().ForkRngs(device_id);
    if (jitter_battery) {
      Rng jitter_rng = battery_jitter_base.Fork(device_id);
      const double j = spec_.jitter.battery_capacity;
      BatteryParams params = *dev_config.itsy.battery;
      params.peukert_capacity *= 1.0 + jitter_rng.Uniform(-j, j);
      dev.itsy().battery()->SetParams(params);
    }

    dev.RunUntil(dev.duration());
    if (dev.sim().CancelRequested()) {
      throw CancelledError("fleet shard cancelled");
    }
    dev.itsy().SyncBattery();

    // Round real-valued samples to integers exactly once, at the device
    // level; everything downstream is exact integer arithmetic.
    const double energy_j =
        dev.itsy().tape().EnergyJoules(SimTime::Zero(), dev.sim().Now());
    const std::uint64_t energy_uj =
        static_cast<std::uint64_t>(std::llround(energy_j * 1e6));

    agg.devices += 1;
    agg.energy_uj += energy_uj;
    agg.energy_uj_sq += static_cast<U128>(energy_uj) * static_cast<U128>(energy_uj);
    agg.device_energy_uj.Observe(static_cast<double>(energy_uj));
    agg.deadline_events += static_cast<std::uint64_t>(dev.deadlines().TotalEvents());
    agg.deadline_misses += static_cast<std::uint64_t>(dev.deadlines().TotalMissed());
    agg.deadline_rejected += static_cast<std::uint64_t>(dev.deadlines().TotalRejected());
    agg.deadline_shed += static_cast<std::uint64_t>(dev.deadlines().TotalShed());
    agg.quanta += dev.kernel().quanta_elapsed();
    agg.clock_changes += static_cast<std::uint64_t>(dev.itsy().clock_changes());

    std::uint64_t died_at_s = 0;
    bool died = false;
    if (const Battery* battery = dev.itsy().battery(); battery != nullptr && battery->Died()) {
      died = true;
      died_at_s = static_cast<std::uint64_t>(std::llround(battery->DiedAt().ToSeconds()));
      agg.battery_deaths += 1;
      agg.battery_death_s.Observe(static_cast<double>(died_at_s));
    }

    if (want_rows) {
      per_device_rows += std::to_string(device_id);
      per_device_rows += ',';
      per_device_rows += cell.app;
      per_device_rows += ',';
      per_device_rows += std::to_string(energy_uj);
      per_device_rows += ',';
      per_device_rows += std::to_string(dev.deadlines().TotalEvents());
      per_device_rows += ',';
      per_device_rows += std::to_string(dev.deadlines().TotalMissed());
      per_device_rows += ',';
      per_device_rows += died ? std::to_string(died_at_s) : std::string("-");
      per_device_rows += '\n';
    }
  }

  if (want_rows) {
    const std::string path = spec_.per_device_out + ".shard" +
                             std::to_string(shard.first_device) + ".csv";
    std::string error;
    if (!AtomicWriteFile(path,
                         "device_id,app,energy_uj,deadline_events,deadline_misses,died_at_s\n" +
                             per_device_rows,
                         &error)) {
      throw std::runtime_error("fleet: per-device artifact write failed: " + error);
    }
  }

  // One result per shard — the journal unit.  The aggregate rides the
  // metrics registry (journal.h persists it in full); the scalar fields are
  // a human-readable summary of the same numbers.
  ExperimentResult result;
  result.app = cell.app;
  result.governor = config.governor;
  result.duration = spec_.duration;
  result.energy_joules = static_cast<double>(agg.energy_uj) * 1e-6;
  result.exact_energy_joules = result.energy_joules;
  agg.ExportTo(&result.metrics);
  return result;
}

FleetReport FleetRunner::Run() {
  Plan();

  std::vector<ExperimentConfig> grid;
  grid.reserve(shards_.size());
  for (const FleetShard& shard : shards_) {
    grid.push_back(ShardConfig(shard));
  }

  SweepJobHooks hooks;
  hooks.execute = [this](const ExperimentConfig& config, int index) {
    SweepJobResult slot;
    slot.result = RunShard(static_cast<std::size_t>(index), config);
    return slot;
  };
  SweepRunner runner(options_);
  const std::vector<SweepJobResult> results = runner.Run(grid, hooks);

  FleetReport report;
  report.shards = shards_.size();
  report.replayed_shards = static_cast<std::uint64_t>(runner.metrics().replayed);
  report.executed_shards = static_cast<std::uint64_t>(runner.metrics().executed());

  std::vector<const MetricsRegistry*> shard_metrics;
  shard_metrics.reserve(results.size());
  for (std::size_t s = 0; s < results.size(); ++s) {
    if (results[s].ok()) {
      shard_metrics.push_back(&results[s].result->metrics);
    } else {
      report.failed_shards += 1;
      report.missing_devices += shards_[s].count;
    }
  }
  if (!shard_metrics.empty()) {
    MergeRange(shard_metrics, 0, shard_metrics.size(), &report.merged);
  }

  report.devices = CounterOf(report.merged, "fleet.devices");
  report.deadline_events = CounterOf(report.merged, "fleet.deadline_events");
  report.deadline_misses = CounterOf(report.merged, "fleet.deadline_misses");
  report.deadline_rejected = CounterOf(report.merged, "fleet.deadline_rejected");
  report.deadline_shed = CounterOf(report.merged, "fleet.deadline_shed");
  report.battery_deaths = CounterOf(report.merged, "fleet.battery_deaths");
  report.quanta = CounterOf(report.merged, "fleet.quanta");
  report.clock_changes = CounterOf(report.merged, "fleet.clock_changes");

  if (report.devices > 0) {
    const double n = static_cast<double>(report.devices);
    const double sum_uj = static_cast<double>(CounterOf(report.merged, "fleet.energy_uj"));
    const U128 sq = (static_cast<U128>(CounterOf(report.merged, "fleet.energy_uj_sq_hi")) << 64) |
                    static_cast<U128>(CounterOf(report.merged, "fleet.energy_uj_sq_lo"));
    const double mean_uj = sum_uj / n;
    const double mean_sq_uj = static_cast<double>(sq) / n;
    const double var_uj = mean_sq_uj - mean_uj * mean_uj;
    report.energy_mean_j = mean_uj * 1e-6;
    report.energy_stddev_j = var_uj > 0.0 ? std::sqrt(var_uj) * 1e-6 : 0.0;
    report.death_fraction = static_cast<double>(report.battery_deaths) / n;
  }
  if (report.deadline_events > 0) {
    report.miss_rate = static_cast<double>(report.deadline_misses) /
                       static_cast<double>(report.deadline_events);
  }
  if (const LogHistogram* deaths = report.merged.FindHistogram("fleet.battery_death_s");
      deaths != nullptr && deaths->count() > 0) {
    report.death_time_p50_s = deaths->ApproxQuantile(0.5);
    report.death_time_p95_s = deaths->ApproxQuantile(0.95);
  }
  return report;
}

std::string RenderFleetJson(const FleetReport& report) {
  // Deliberately excludes the shard layout (shard count, replay/execute
  // split): the rendered report is the fleet *result*, which the byte-
  // identity contract holds fixed across shard sizes and thread counts.
  std::ostringstream os;
  os << "{\"fleet\":{";
  os << "\"devices\":" << report.devices;
  os << ",\"missing_devices\":" << report.missing_devices;
  os << ",\"energy_mean_j\":" << JsonNumber(report.energy_mean_j);
  os << ",\"energy_stddev_j\":" << JsonNumber(report.energy_stddev_j);
  os << ",\"deadline_events\":" << report.deadline_events;
  os << ",\"deadline_misses\":" << report.deadline_misses;
  os << ",\"deadline_rejected\":" << report.deadline_rejected;
  os << ",\"deadline_shed\":" << report.deadline_shed;
  os << ",\"miss_rate\":" << JsonNumber(report.miss_rate);
  os << ",\"battery_deaths\":" << report.battery_deaths;
  os << ",\"death_fraction\":" << JsonNumber(report.death_fraction);
  os << ",\"death_time_p50_s\":" << JsonNumber(report.death_time_p50_s);
  os << ",\"death_time_p95_s\":" << JsonNumber(report.death_time_p95_s);
  os << ",\"quanta\":" << report.quanta;
  os << ",\"clock_changes\":" << report.clock_changes;
  os << "},\"metrics\":";
  report.merged.WriteJson(os);
  os << "}";
  return os.str();
}

}  // namespace dcs
