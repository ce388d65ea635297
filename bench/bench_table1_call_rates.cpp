// bench_table1_call_rates — reproduces Table 1: collective and
// point-to-point communication calls per second (per-process average) for
// the OSU micro-benchmark reference and the five applications, ordered by
// collective call rate.
//
// Besides the paper's virtual-time rates, each run also reports the
// *harness* call-processing rate — total wrapper calls divided by the wall
// time the simulator needed — which is what the data-path optimizations
// move and what the perf-smoke CI job gates on (--json output).
#include <chrono>

#include "bench_util.hpp"
#include "workloads/comd_proxy.hpp"
#include "workloads/lammps_proxy.hpp"
#include "workloads/osu.hpp"
#include "workloads/poisson_cg.hpp"
#include "workloads/sw4_proxy.hpp"
#include "workloads/vasp_proxy.hpp"

namespace manatee::bench {
namespace {

struct Row {
  std::string app;
  std::string input;
  double coll_per_sec = 0;
  double p2p_per_sec = 0;
  // Harness wall-clock metrics (not part of Table 1; perf-smoke gates).
  double wall_secs = 0;
  std::uint64_t coll_calls = 0;
  std::uint64_t p2p_calls = 0;
};

template <typename W>
Row measure(const char* app, const char* input, const W& workload, int world,
            int rpn) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto report = run_workload(workload, world, rpn, Protocol::kNative);
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = report.seconds();
  Row row;
  row.app = app;
  row.input = input;
  if (secs > 0) {
    row.coll_per_sec = static_cast<double>(report.wrapper_collective_calls) /
                       world / secs;
    row.p2p_per_sec =
        static_cast<double>(report.wrapper_p2p_calls) / world / secs;
  }
  row.wall_secs = std::chrono::duration<double>(t1 - t0).count();
  row.coll_calls = report.wrapper_collective_calls;
  row.p2p_calls = report.wrapper_p2p_calls;
  return row;
}

int run(int argc, char** argv) {
  const Options opts(argc, argv);
  const int world = static_cast<int>(opts.get_int("ranks", 64));
  const int rpn = ranks_per_node(opts, 16);

  print_header("Table 1: communication calls per second (" +
                   std::to_string(world) + " ranks, " +
                   std::to_string((world + rpn - 1) / rpn) + " nodes)",
               "paper Table 1 (512 ranks over 4 Perlmutter nodes)");

  std::vector<Row> rows;

  {
    workloads::OsuLatency osu;
    osu.params.collective = workloads::OsuCollective::kBcast;
    osu.params.message_bytes = 4;
    osu.params.iterations = 400;
    rows.push_back(measure("OSU MicroBench", "MPI_Bcast (msg: 4 bytes)", osu,
                           world, rpn));
  }
  {
    workloads::VaspProxy vasp;
    vasp.scf_iterations = 4;
    rows.push_back(measure("VASP 6", "PdO4 (proxy)", vasp, world, rpn));
  }
  {
    workloads::PoissonCg poisson;
    poisson.iterations = 12;
    rows.push_back(
        measure("Poisson Solver", "rel_error = 0.01 (proxy)", poisson, world, rpn));
  }
  {
    workloads::CoMDProxy comd;
    comd.timesteps = 30;
    rows.push_back(measure("CoMD", "Cu_u6.eam (proxy)", comd, world, rpn));
  }
  {
    workloads::LammpsProxy lammps;
    lammps.timesteps = 30;
    rows.push_back(measure("LAMMPS", "Scaled LJ Liquid (proxy)", lammps, world, rpn));
  }
  {
    workloads::Sw4Proxy sw4;
    sw4.timesteps = 40;
    rows.push_back(measure("SW4", "LOH.1-h50.in (proxy)", sw4, world, rpn));
  }

  std::printf("%-16s %-28s %14s %14s %12s\n", "Application", "Input",
              "coll. calls/s", "p2p calls/s", "wall secs");
  for (const auto& r : rows) {
    std::printf("%-16s %-28s %14.1f %14.1f %12.2f\n", r.app.c_str(),
                r.input.c_str(), r.coll_per_sec, r.p2p_per_sec, r.wall_secs);
  }
  std::printf(
      "\nPaper (512 ranks): OSU 255754.5/NA, VASP 2489.2/2568.9, Poisson "
      "21.3/NA, CoMD 7.8/414.2, LAMMPS 6.3/1707.5, SW4 0.6/157.9\n");

  // Harness throughput: wrapper calls processed per second of wall time,
  // aggregated over all the workloads above.
  double wall = 0;
  std::uint64_t coll = 0;
  std::uint64_t p2p = 0;
  for (const auto& r : rows) {
    wall += r.wall_secs;
    coll += r.coll_calls;
    p2p += r.p2p_calls;
  }
  const double wall_coll_rate = wall > 0 ? static_cast<double>(coll) / wall : 0;
  const double wall_p2p_rate = wall > 0 ? static_cast<double>(p2p) / wall : 0;
  std::printf(
      "\nHarness wall-clock rate: %.1f collective calls/s, %.1f p2p calls/s "
      "(%.2f s total)\n",
      wall_coll_rate, wall_p2p_rate, wall);

  if (opts.has("json")) {
    const std::string path = opts.get("json", "");
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"rows\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& r = rows[i];
      std::fprintf(f,
                   "    {\"app\": \"%s\", \"coll_per_sec\": %.2f, "
                   "\"p2p_per_sec\": %.2f, \"wall_secs\": %.3f}%s\n",
                   r.app.c_str(), r.coll_per_sec, r.p2p_per_sec, r.wall_secs,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n"
                 "  \"wall_coll_calls_per_sec\": %.2f,\n"
                 "  \"wall_p2p_calls_per_sec\": %.2f,\n"
                 "  \"wall_secs_total\": %.3f\n"
                 "}\n",
                 wall_coll_rate, wall_p2p_rate, wall);
    std::fclose(f);
  }
  return 0;
}

}  // namespace
}  // namespace manatee::bench

int main(int argc, char** argv) { return manatee::bench::run(argc, argv); }
