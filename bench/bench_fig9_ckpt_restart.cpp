// bench_fig9_ckpt_restart — reproduces Figure 9 (VASP checkpoint and
// restart times under 2PC vs CC across node counts) and benchmarks the
// checkpoint write-back pipeline (sync-full vs async-delta).
//
// Expected shapes:
//   Figure 9: checkpoint and restart times nearly identical for the two
//   algorithms (the drain is cheap; stable-storage bandwidth dominates)
//   and growing with the node count (more total data through the shared
//   Lustre-class bandwidth).
//   Pipeline: async write-back takes the PFS write off the rank critical
//   path, so the per-cycle *stall* collapses to the in-memory capture
//   cost while the drain continues in the background; delta images shrink
//   bytes-per-generation wherever registered state is cold (the VASP
//   proxy's pseudopotential tables never change after setup).
//
// --json <path> writes the pipeline cells (plus the classic table) for
// the regression record; --check gates the virtual-time ratios, which are
// machine-independent:
//   * async-delta stall <= 0.5x sync-full stall at world >= 64;
//   * delta bytes-per-generation < full bytes-per-generation everywhere.
#include <filesystem>
#include <numeric>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "workloads/vasp_proxy.hpp"

namespace manatee::bench {
namespace {

double mean_ms(const std::vector<simnet::SimTime>& xs) {
  if (xs.empty()) return 0;
  const auto sum = std::accumulate(xs.begin(), xs.end(), simnet::SimTime{0});
  return simnet::to_seconds(sum / static_cast<simnet::SimTime>(xs.size())) * 1e3;
}

double mean_mb(const std::vector<std::uint64_t>& xs) {
  if (xs.empty()) return 0;
  const auto sum = std::accumulate(xs.begin(), xs.end(), std::uint64_t{0});
  return static_cast<double>(sum / xs.size()) / (1024.0 * 1024.0);
}

workloads::VaspProxy make_vasp(const Options& opts, bool cold_state) {
  workloads::VaspProxy vasp;
  vasp.scf_iterations = 3;
  // Per-rank checkpoint weight: hot wavefunction plus (for the pipeline
  // table) a 3x cold pseudopotential block — the delta-dedupe target.
  vasp.wavefunction_elems = static_cast<int>(opts.get_int("state-elems", 1 << 16));
  if (cold_state) vasp.pseudopotential_elems = 3 * vasp.wavefunction_elems;
  return vasp;
}

std::string fresh_dir(const std::string& tag) {
  const auto dir = std::filesystem::temp_directory_path() / ("manatee_fig9_" + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

// ---- part 1: the classic Figure 9 table (2PC vs CC) ------------------------

struct CkptTimes {
  double ckpt_ms = 0;
  double restart_ms = 0;
};

CkptTimes measure_classic(Protocol protocol, int world, int rpn,
                          const Options& opts) {
  simnet::MessageStore::set_wait_timeout_ms(120'000);
  const auto dir = fresh_dir(std::string(split::protocol_name(protocol)) + "_" +
                             std::to_string(world));
  const auto vasp = make_vasp(opts, /*cold_state=*/false);

  EngineConfig config;
  config.runtime.world_size = world;
  config.runtime.ranks_per_node = rpn;
  config.protocol = protocol;
  config.image_dir = dir;
  config.failures.at_collectives = {25};  // mid-run request

  CkptTimes times;
  {
    Engine engine(config);
    const auto report = engine.run([&](Api& api) {
      workloads::VaspProxy instance = vasp;
      instance(api);
    });
    if (!report.ckpt_durations.empty()) {
      times.ckpt_ms = simnet::to_seconds(report.ckpt_durations.front()) * 1e3;
    }
  }
  {
    EngineConfig config2 = config;
    config2.failures.at_collectives.clear();
    Engine engine(config2);
    const auto report = engine.restart([&](Api& api) {
      workloads::VaspProxy instance = vasp;
      instance(api);
    });
    times.restart_ms = simnet::to_seconds(report.restart_duration) * 1e3;
  }
  std::filesystem::remove_all(dir);
  return times;
}

// ---- part 2: the write-back pipeline table (sync-full vs async-delta) ------

struct PipelineCell {
  int world = 0;
  const char* mode = "";
  double stall_ms = 0;     ///< mean request → ranks-resumed per cycle
  double drain_ms = 0;     ///< mean request → generation durable per cycle
  double logical_mb = 0;   ///< mean logical image bytes per generation
  double written_mb = 0;   ///< mean bytes physically written per generation
  double restart_ms = 0;   ///< restart (delta modes resolve the chain)
};

PipelineCell measure_pipeline(int world, int rpn, bool async_delta,
                              const Options& opts) {
  simnet::MessageStore::set_wait_timeout_ms(120'000);
  PipelineCell cell;
  cell.world = world;
  cell.mode = async_delta ? "async-delta" : "sync-full";
  const auto dir = fresh_dir(std::string(cell.mode) + "_" + std::to_string(world));
  const auto vasp = make_vasp(opts, /*cold_state=*/true);

  EngineConfig config;
  config.runtime.world_size = world;
  config.runtime.ranks_per_node = rpn;
  config.protocol = Protocol::kCC;
  config.image_dir = dir;
  // Three checkpoints per run: generation 1 is always full; with
  // full_every=4, generations 2 and 3 are deltas against it.
  config.failures.at_collectives = {10, 20, 30};
  config.retain_generations = 8;
  config.ckpt_async = async_delta;
  config.ckpt_delta = async_delta;
  config.ckpt_full_every = 4;

  {
    Engine engine(config);
    const auto report = engine.run([&](Api& api) {
      workloads::VaspProxy instance = vasp;
      instance(api);
    });
    cell.stall_ms = mean_ms(report.ckpt_durations);
    cell.drain_ms = mean_ms(report.ckpt_drain_durations);
    cell.written_mb = mean_mb(report.ckpt_written_bytes);
    std::vector<std::uint64_t> logical;
    for (const auto& [cycle, s] : engine.writer()->stats()) {
      logical.push_back(s.logical_bytes);
    }
    cell.logical_mb = mean_mb(logical);
  }
  {
    EngineConfig config2 = config;
    config2.failures.at_collectives.clear();
    Engine engine(config2);
    const auto report = engine.restart([&](Api& api) {
      workloads::VaspProxy instance = vasp;
      instance(api);
    });
    cell.restart_ms = simnet::to_seconds(report.restart_duration) * 1e3;
  }
  std::filesystem::remove_all(dir);
  return cell;
}

int run(int argc, char** argv) {
  const Options opts(argc, argv);
  const int rpn = ranks_per_node(opts, 8);
  const std::vector<int> worlds = opts.get_bool("full")
                                      ? std::vector<int>{128, 256, 512, 1024}
                                      : std::vector<int>{8, 16, 32, 64};

  print_header("Figure 9: VASP checkpoint & restart times, 2PC vs CC",
               "paper Fig. 9 (1..16 nodes, Lustre)");

  struct ClassicRow {
    int world;
    CkptTimes tpc, cc;
  };
  std::vector<ClassicRow> classic;
  std::printf("%8s %8s | %14s %14s | %14s %14s\n", "ranks", "nodes",
              "2PC ckpt (ms)", "CC ckpt (ms)", "2PC restart", "CC restart");
  for (const int world : worlds) {
    ClassicRow row{world, measure_classic(Protocol::kTpc, world, rpn, opts),
                   measure_classic(Protocol::kCC, world, rpn, opts)};
    std::printf("%8d %8d | %14.3f %14.3f | %14.3f %14.3f\n", world,
                (world + rpn - 1) / rpn, row.tpc.ckpt_ms, row.cc.ckpt_ms,
                row.tpc.restart_ms, row.cc.restart_ms);
    classic.push_back(row);
  }
  std::printf(
      "\nExpected shape (paper): 2PC ≈ CC at every point; both grow with "
      "node count (total image data / shared storage bandwidth).\n");

  print_header("Checkpoint write-back pipeline: sync-full vs async-delta",
               "the incremental/async checkpoint pipeline (CC protocol, 3 "
               "cycles, full_every=4 → generations 2-3 are deltas)");

  std::vector<PipelineCell> cells;
  std::printf("%8s %-12s | %12s %12s | %12s %12s | %12s\n", "ranks", "mode",
              "stall ms", "drain ms", "MB/gen", "written MB", "restart ms");
  for (const int world : worlds) {
    for (const bool async_delta : {false, true}) {
      const auto cell = measure_pipeline(world, rpn, async_delta, opts);
      std::printf("%8d %-12s | %12.3f %12.3f | %12.2f %12.2f | %12.3f\n",
                  cell.world, cell.mode, cell.stall_ms, cell.drain_ms,
                  cell.logical_mb, cell.written_mb, cell.restart_ms);
      cells.push_back(cell);
    }
  }
  std::printf(
      "\nExpected shape: async-delta stall collapses to the capture copy "
      "(the drain column keeps the PFS write); written MB/gen drops on "
      "delta generations (cold pseudopotential tables dedupe away).\n");

  if (opts.has("json")) {
    const std::string path = opts.get("json", "");
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"state_elems\": %lld,\n  \"ranks_per_node\": %d,\n",
                 static_cast<long long>(opts.get_int("state-elems", 1 << 16)),
                 rpn);
    std::fprintf(f, "  \"fig9\": [\n");
    for (std::size_t i = 0; i < classic.size(); ++i) {
      const auto& r = classic[i];
      std::fprintf(f,
                   "    {\"world\": %d, \"tpc_ckpt_ms\": %.4f, \"cc_ckpt_ms\": "
                   "%.4f, \"tpc_restart_ms\": %.4f, \"cc_restart_ms\": %.4f}%s\n",
                   r.world, r.tpc.ckpt_ms, r.cc.ckpt_ms, r.tpc.restart_ms,
                   r.cc.restart_ms, i + 1 < classic.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"pipeline\": [\n");
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const auto& c = cells[i];
      std::fprintf(f,
                   "    {\"world\": %d, \"mode\": \"%s\", \"stall_ms\": %.4f, "
                   "\"drain_ms\": %.4f, \"logical_mb_per_gen\": %.3f, "
                   "\"written_mb_per_gen\": %.3f, \"restart_ms\": %.4f}%s\n",
                   c.world, c.mode, c.stall_ms, c.drain_ms, c.logical_mb,
                   c.written_mb, c.restart_ms, i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
  }

  if (opts.has("check")) {
    // Virtual-time ratio gates — machine-independent by construction.
    bool ok = true;
    for (std::size_t i = 0; i + 1 < cells.size(); i += 2) {
      const PipelineCell& full = cells[i];
      const PipelineCell& ad = cells[i + 1];
      if (full.world >= 64 && ad.stall_ms > 0.5 * full.stall_ms) {
        std::fprintf(stderr,
                     "FAIL: async-delta stall %.3fms > 0.5x sync-full stall "
                     "%.3fms at world %d\n",
                     ad.stall_ms, full.stall_ms, full.world);
        ok = false;
      }
      if (ad.written_mb >= full.written_mb) {
        std::fprintf(stderr,
                     "FAIL: delta generations wrote %.2f MB/gen, full wrote "
                     "%.2f MB/gen at world %d (dedupe ineffective)\n",
                     ad.written_mb, full.written_mb, full.world);
        ok = false;
      }
    }
    if (!ok) return 1;
    std::printf("\ncheck OK: async-delta stall <= 0.5x sync-full at world >= "
                "64; delta bytes/gen below full everywhere\n");
  }
  return 0;
}

}  // namespace
}  // namespace manatee::bench

int main(int argc, char** argv) { return manatee::bench::run(argc, argv); }
