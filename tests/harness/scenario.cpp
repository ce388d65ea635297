#include "harness/scenario.hpp"

#include <gtest/gtest.h>

#include <filesystem>

#include "ckpt/generation.hpp"
#include "common/error.hpp"
#include "core/drain_graph.hpp"
#include "harness/apps.hpp"
#include "simnet/mailbox.hpp"
#include "workloads/comd_proxy.hpp"
#include "workloads/lammps_proxy.hpp"
#include "workloads/poisson_cg.hpp"
#include "workloads/sw4_proxy.hpp"
#include "workloads/vasp_proxy.hpp"

namespace manatee::harness {

using split::Api;
using split::Engine;
using split::EngineConfig;
using split::Protocol;

const char* workload_name(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kMixed: return "mixed";
    case WorkloadKind::kLammps: return "lammps";
    case WorkloadKind::kComd: return "comd";
    case WorkloadKind::kSw4: return "sw4";
    case WorkloadKind::kVasp: return "vasp";
    case WorkloadKind::kPoissonCg: return "poisson_cg";
  }
  return "?";
}

std::vector<WorkloadKind> workloads_for(Protocol protocol) {
  std::vector<WorkloadKind> kinds{WorkloadKind::kMixed, WorkloadKind::kLammps,
                                  WorkloadKind::kComd, WorkloadKind::kSw4,
                                  WorkloadKind::kVasp};
  if (protocol == Protocol::kCC) kinds.push_back(WorkloadKind::kPoissonCg);
  return kinds;
}

simnet::SimTime approx_virtual_makespan_ns(WorkloadKind kind) {
  // Failure-free makespans of the scaled workloads below, measured once
  // against the default cost model (worlds 2–8) and rounded; schedules that
  // want K crashes size their Poisson mean as makespan / (K + 1).
  switch (kind) {
    case WorkloadKind::kMixed: return 70'000;
    case WorkloadKind::kLammps: return 495'000;
    case WorkloadKind::kComd: return 518'000;
    case WorkloadKind::kSw4: return 616'000;
    case WorkloadKind::kVasp: return 255'000;
    case WorkloadKind::kPoissonCg: return 400'000;
  }
  return 400'000;
}

std::uint64_t approx_collective_calls(WorkloadKind kind) {
  // Per-rank wrapper-level collective calls of the scaled workloads (world
  // 4) — collective-count failure ladders only make sense for
  // collective-rich workloads.
  switch (kind) {
    case WorkloadKind::kMixed: return 44;
    case WorkloadKind::kLammps: return 4;
    case WorkloadKind::kComd: return 4;
    case WorkloadKind::kSw4: return 2;
    case WorkloadKind::kVasp: return 31;
    case WorkloadKind::kPoissonCg: return 20;
  }
  return 4;
}

FingerprintApp make_workload(WorkloadKind kind, Protocol protocol) {
  const bool nbc_ok = protocol == Protocol::kCC;
  switch (kind) {
    case WorkloadKind::kMixed:
      return [nbc_ok](Api& api) {
        MixedApp app;
        app.iterations = 10;
        app.vector_len = 32;
        app.use_nbc = nbc_ok;
        app(api);
        return app.result;
      };
    case WorkloadKind::kLammps:
      return [](Api& api) {
        workloads::LammpsProxy p;
        p.timesteps = 8;
        p.halos_per_step = 2;
        p.halo_elems = 32;
        p.reduce_every = 2;
        p.compute_per_step_ns = 60'000;
        p(api);
        return p.outcome.fingerprint;
      };
    case WorkloadKind::kComd:
      return [](Api& api) {
        workloads::CoMDProxy p;
        p.timesteps = 10;
        p.halos_per_step = 2;
        p.halo_elems = 48;
        p.reduce_every = 3;
        p.compute_per_step_ns = 50'000;
        p(api);
        return p.outcome.fingerprint;
      };
    case WorkloadKind::kSw4:
      return [](Api& api) {
        workloads::Sw4Proxy p;
        p.timesteps = 10;
        p.halos_per_step = 2;
        p.halo_elems = 64;
        p.reduce_every = 5;
        p.compute_per_step_ns = 60'000;
        p(api);
        return p.outcome.fingerprint;
      };
    case WorkloadKind::kVasp:
      return [](Api& api) {
        workloads::VaspProxy p;
        p.scf_iterations = 3;
        p.ffts_per_iteration = 3;
        p.fft_block_elems = 16;
        p.band_groups = 2;
        p.compute_per_fft_ns = 25'000;
        p.wavefunction_elems = 256;
        p(api);
        return p.outcome.fingerprint;
      };
    case WorkloadKind::kPoissonCg:
      return [](Api& api) {
        workloads::PoissonCg p;
        p.local_n = 128;
        p.iterations = 10;
        p.compute_per_iter_ns = 40'000;
        p(api);
        return p.outcome.fingerprint;
      };
  }
  throw UsageError("unknown workload kind");
}

std::string Scenario::describe() const {
  std::string out = "scenario{tag=" + tag + " workload=" +
                    workload_name(workload) + " world=" + std::to_string(world) +
                    " protocol=" + split::protocol_name(protocol);
  if (!failures.at_collectives.empty()) {
    out += " at_collectives[" + std::to_string(failures.at_collectives.size()) + "]";
  }
  if (!failures.at_times.empty()) {
    out += " at_times[" + std::to_string(failures.at_times.size()) + "]";
  }
  if (failures.poisson_mean_ns > 0) {
    out += " poisson{mean=" + std::to_string(failures.poisson_mean_ns) +
           "ns seed=" + std::to_string(failures.poisson_seed) + "}";
  }
  out += " sched=" + std::string(sched::backend_name(sched.backend));
  if (topo.kind != simnet::TopoKind::kFlat) {
    out += " topo=" + std::string(simnet::topo_kind_name(topo.kind));
  }
  out += " retain=" + std::to_string(retain_generations);
  if (ckpt_delta || ckpt_async || ckpt_replicate) {
    out += " ckpt{";
    if (ckpt_delta) out += "delta(full_every=" + std::to_string(ckpt_full_every) + ")";
    if (ckpt_async) out += " async";
    if (ckpt_replicate) out += " replicate";
    out += "}";
  }
  out += "}";
  return out;
}

std::string fresh_dir(const std::string& tag) {
  const auto dir = std::filesystem::temp_directory_path() / ("manatee_" + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

EngineConfig make_engine_config(Protocol protocol, int world,
                                const std::string& image_dir,
                                std::vector<std::uint64_t> trigger_at_collectives,
                                bool stop_after_checkpoint, int ranks_per_node,
                                bool record_trace) {
  simnet::MessageStore::set_wait_timeout_ms(20'000);
  EngineConfig config;
  config.runtime.world_size = world;
  config.runtime.ranks_per_node = ranks_per_node;
  config.protocol = protocol;
  config.image_dir = image_dir;
  config.failures.at_collectives = std::move(trigger_at_collectives);
  config.stop_after_checkpoint = stop_after_checkpoint;
  config.record_trace = record_trace;
  return config;
}

void expect_safe_state(Engine& engine, std::uint64_t cycles, bool minimality) {
  core::DrainGraph graph = engine.make_drain_graph();
  for (std::uint64_t cycle = 1; cycle <= cycles; ++cycle) {
    const auto verdict = graph.check_safe_state(cycle, minimality);
    EXPECT_TRUE(verdict.ok) << "cycle " << cycle << ": " << verdict.error << "\n"
                            << engine.describe_traces();
  }
}

ScenarioOutcome run_scenario(const Scenario& scenario) {
  simnet::MessageStore::set_wait_timeout_ms(scenario.wait_timeout_ms);
  const FingerprintApp app = scenario.custom_app
                                 ? scenario.custom_app
                                 : make_workload(scenario.workload, scenario.protocol);

  ScenarioOutcome outcome;
  outcome.golden.resize(static_cast<std::size_t>(scenario.world));
  outcome.chained.resize(static_cast<std::size_t>(scenario.world));

  // Golden run: the failure-free trajectory, native protocol (no wrapper
  // interference at all — the strongest oracle).
  {
    EngineConfig config;
    config.runtime.world_size = scenario.world;
    config.runtime.ranks_per_node = scenario.ranks_per_node;
    config.runtime.topo = scenario.topo;
    config.runtime.coll = scenario.coll;
    config.runtime.sched = scenario.sched;
    config.protocol = Protocol::kNative;
    Engine engine(config);
    engine.run([&](Api& api) {
      outcome.golden[static_cast<std::size_t>(api.rank())] = app(api);
    });
  }

  outcome.image_dir = fresh_dir(scenario.tag);

  split::LifecycleConfig lifecycle;
  lifecycle.engine.runtime.world_size = scenario.world;
  lifecycle.engine.runtime.ranks_per_node = scenario.ranks_per_node;
  lifecycle.engine.runtime.topo = scenario.topo;
  lifecycle.engine.runtime.coll = scenario.coll;
  lifecycle.engine.runtime.sched = scenario.sched;
  lifecycle.engine.protocol = scenario.protocol;
  lifecycle.engine.image_dir = outcome.image_dir;
  lifecycle.engine.failures = scenario.failures;
  lifecycle.engine.retain_generations = scenario.retain_generations;
  lifecycle.engine.ckpt_delta = scenario.ckpt_delta;
  lifecycle.engine.ckpt_async = scenario.ckpt_async;
  lifecycle.engine.ckpt_replicate = scenario.ckpt_replicate;
  lifecycle.engine.ckpt_full_every = scenario.ckpt_full_every;
  lifecycle.engine.ckpt_publish_hook = scenario.ckpt_publish_hook;
  lifecycle.engine.record_trace = scenario.check_oracle;
  lifecycle.max_segments = scenario.max_segments;
  if (scenario.check_oracle) {
    const bool minimality = scenario.protocol == Protocol::kCC;
    lifecycle.on_segment = [minimality](Engine& engine, const split::RunReport& r,
                                        std::size_t segment) {
      if (r.checkpoints == 0) return;
      SCOPED_TRACE("segment " + std::to_string(segment));
      expect_safe_state(engine, r.checkpoints, minimality);
    };
  }

  split::Lifecycle driver(std::move(lifecycle));
  outcome.lifecycle = driver.run([&](Api& api) {
    outcome.chained[static_cast<std::size_t>(api.rank())] = app(api);
  });
  return outcome;
}

ScenarioOutcome expect_scenario_roundtrip(const Scenario& scenario) {
  SCOPED_TRACE(scenario.describe());
  ScenarioOutcome outcome;
  try {
    outcome = run_scenario(scenario);
  } catch (const std::exception& ex) {
    ADD_FAILURE() << "scenario threw: " << ex.what();
    return outcome;
  }
  const auto& life = outcome.lifecycle;
  EXPECT_TRUE(life.completed)
      << "lifecycle did not complete in " << scenario.max_segments
      << " segments (crashes=" << life.crashes << ")";
  EXPECT_EQ(life.segments.size(), life.crashes + (life.completed ? 1 : 0));
  EXPECT_EQ(life.restored_generations.size(), life.crashes);
  EXPECT_GE(life.checkpoints, life.crashes);
  for (const auto gen : life.restored_generations) {
    EXPECT_GT(gen, 0u) << "restart did not restore from a numbered generation";
  }
  if (scenario.retain_generations > 0 && life.crashes > 0) {
    // Delta chains may pin up to full_every-1 base generations below the
    // numeric retention cutoff (retain() protects live bases).
    const std::size_t chain_slack =
        scenario.ckpt_delta
            ? static_cast<std::size_t>(scenario.ckpt_full_every) - 1
            : 0;
    EXPECT_LE(ckpt::GenerationStore::list(outcome.image_dir).size(),
              static_cast<std::size_t>(scenario.retain_generations) + 1 +
                  chain_slack)
        << "retention did not prune old generations";
  }
  EXPECT_EQ(outcome.chained, outcome.golden)
      << "chained crash/restart trajectory diverged from the failure-free run";
  return outcome;
}

}  // namespace manatee::harness
