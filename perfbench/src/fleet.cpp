// sweep-rules and metro-drl: the fleet engine's two execution paths.
//
// sweep-rules runs 64 uncoupled hubs (make_fleet_jobs, round-robin over the
// six built-in scenarios, 30-day episodes) under each of the five rule
// schedulers through FleetRunner::run.  Episode generation dominates and no
// neural network runs, so kernel work should leave it flat; the five
// schedulers replay identical episode inputs per hub, so sharing generation
// across schedulers would show here and nowhere else.
//
// metro-drl runs a 64-hub coupled MetroMap fleet under ECT-DRL through
// run_lockstep with worker-placed GEMMs: per slot every worker forwards its
// 64/T-row block, then the crew meets at a barrier and the CouplingBus
// exchanges overflow.
//
// The traced pass replays each engine call serially through the public
// per-slot API and requires the replay to reproduce the engine's
// HubRunResults field for field (HubRunResult::operator==).
#include "bench.hpp"

#include "common/time_grid.hpp"
#include "nn/layers.hpp"
#include "nn/mlp.hpp"
#include "sim/coupling.hpp"
#include "sim/fleet_runner.hpp"
#include "sim/metro.hpp"
#include "sim/scenario.hpp"
#include "spatial/metro.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <stdexcept>

namespace perfbench {
namespace {

namespace ec = ecthub;
using ec::sim::FleetJob;
using ec::sim::FleetRunner;
using ec::sim::FleetRunnerConfig;
using ec::sim::HubRunResult;
using ec::sim::SchedulerKind;

struct FleetShape {
  std::size_t hubs = 64;
  std::size_t days = 30;
};

FleetShape fleet_shape(const Options& o) { return o.smoke ? FleetShape{8, 2} : FleetShape{}; }

const std::vector<SchedulerKind> kRuleKinds = {
    SchedulerKind::kNoBattery, SchedulerKind::kTou, SchedulerKind::kGreedyPrice,
    SchedulerKind::kForecast, SchedulerKind::kRandom};

// A floor on timed engine calls, so a slow machine still reports a median
// rather than a single call.
constexpr std::size_t kMinCalls = 5;
// The traced pass replays one engine call: its per-slot spans already run
// to ~10^5-10^6, so repeating it would only grow the trace.  The engine
// itself (one span per call) is timed for a third of --seconds when the
// pass is the run's own.
constexpr double kTracedEngineShare = 1.0 / 3.0;

FleetRunnerConfig runner_config(const Options& o) {
  FleetRunnerConfig cfg;
  cfg.base_seed = o.seed;
  cfg.threads = o.threads;
  cfg.lockstep_threads = o.threads;
  cfg.lockstep_gemm = ec::sim::LockstepGemm::kWorker;
  cfg.episodes_per_hub = 1;
  return cfg;
}

std::size_t slots_of(const FleetJob& job) {
  return job.env.episode_days * job.env.slots_per_day;
}

std::uint64_t count_mismatches(const std::vector<HubRunResult>& got,
                               const std::vector<HubRunResult>& want) {
  if (got.size() != want.size()) return std::max(got.size(), want.size());
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < got.size(); ++i) bad += got[i] == want[i] ? 0 : 1;
  return bad;
}

struct SocTracker {
  ec::sim::SocDigest soc;
  void begin(double first) {
    soc = {};
    soc.first = first;
    soc.min = std::numeric_limits<double>::infinity();
    soc.max = -std::numeric_limits<double>::infinity();
  }
  void sample(double s) {
    soc.last = s;
    soc.min = std::min(soc.min, s);
    soc.max = std::max(soc.max, s);
    soc.checksum += s;
    ++soc.samples;
  }
  ec::sim::SocDigest finish() {
    soc.mean = soc.samples > 0 ? soc.checksum / static_cast<double>(soc.samples) : 0.0;
    return soc;
  }
};

HubRunResult blank_result(const FleetJob& job, std::size_t hub_id, std::uint64_t hub_seed,
                          std::size_t slots) {
  HubRunResult r;
  r.hub_id = hub_id;
  r.hub_name = job.hub.name;
  r.scenario = job.scenario;
  r.scheduler = job.scheduler;
  r.seed = hub_seed;
  r.episodes = 1;
  r.slots_per_episode = slots;
  return r;
}

void close_episode(const ec::core::EctHubEnv& env, SocTracker& soc, HubRunResult& r) {
  r.soc = soc.finish();
  const ec::core::ProfitLedger& ledger = env.ledger();
  r.revenue += ledger.total_revenue();
  r.grid_cost += ledger.total_grid_cost();
  r.bp_cost += ledger.total_bp_cost();
  r.profit += ledger.total_profit();
  r.episode_profit.push_back(ledger.total_profit());
}

struct SpanIds {
  explicit SpanIds(Tracer& t)
      : engine(t.intern("sim.engine")),
        replay(t.intern("sim.replay")),
        job(t.intern("sim.replay_job")),
        slot(t.intern("sim.slot")),
        reset(t.intern("core.reset")),
        step(t.intern("core.step")),
        decide(t.intern("policy.decide")),
        decide_rows(t.intern("policy.decide_rows")),
        exchange(t.intern("sim.coupling_exchange")) {}
  std::uint32_t engine, replay, job, slot, reset, step, decide, decide_rows, exchange;
};

/// FleetRunner::run_job, one episode, through the public per-slot API.
/// Random-scheduler jobs cannot be rebuilt: the engine's policy seed tag is
/// private, so their replay draws its own stream and is never compared.
HubRunResult replay_job(const FleetJob& job, std::size_t hub_id, const FleetRunnerConfig& cfg,
                        Tracer& t, const SpanIds& id, StageReplay& stages) {
  const Scope job_span(t, id.job);
  const std::uint64_t hub_seed = ec::sim::mix_seed(cfg.base_seed, hub_id);
  ec::core::HubConfig hub = job.hub;
  hub.seed = hub_seed;
  ec::core::EctHubEnv env(std::move(hub), job.env);
  const auto pol =
      ec::sim::make_policy(job.scheduler, hub_seed, env.observation_layout(), job.checkpoint);
  HubRunResult r = blank_result(job, hub_id, hub_seed, env.slots_per_episode());
  std::vector<double> state(env.state_dim());
  {
    const Scope s(t, id.reset);
    env.reset_into(state);
  }
  stages.run(env.hub());
  pol->begin_episode();
  SocTracker soc;
  soc.begin(env.soc_frac());
  bool done = false;
  while (!done) {
    std::size_t action = 0;
    {
      const Scope s(t, id.decide);
      action = pol->decide(state);
    }
    {
      const Scope s(t, id.step);
      done = env.step_into(action, state).done;
    }
    soc.sample(env.soc_frac());
  }
  close_episode(env, soc, r);
  return r;
}

/// run_lockstep with LockstepGemm::kWorker and `threads` partitions, for
/// the metro workload's shape (every job ECT-DRL, one episode, equal
/// length), one partition after another: each partition resets its lanes at
/// slot 0, forwards its row block and steps its lanes, then the bus
/// exchanges.  Lanes never read each other within a slot, so the serial
/// order is the engine's per-lane operation sequence.  Copies the
/// observation matrix at mid-episode into `mid_obs`.
std::vector<HubRunResult> replay_lockstep(const std::vector<FleetJob>& jobs,
                                          const FleetRunnerConfig& cfg, std::size_t threads,
                                          Tracer& t, const SpanIds& id, StageReplay& stages,
                                          ec::nn::Matrix& mid_obs) {
  const std::size_t n = jobs.size();
  struct Lane {
    std::unique_ptr<ec::core::EctHubEnv> env;
    double dt_hours = 1.0;
    SocTracker soc;
    HubRunResult r;
  };
  std::vector<std::vector<std::size_t>> neighbors;
  for (const FleetJob& job : jobs) neighbors.push_back(job.neighbors);
  ec::sim::CouplingBus bus(std::move(neighbors));

  std::vector<Lane> lanes(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t hub_seed = ec::sim::mix_seed(cfg.base_seed, cfg.hub_id_offset + i);
    ec::core::HubConfig hub = jobs[i].hub;
    hub.seed = hub_seed;
    lanes[i].env = std::make_unique<ec::core::EctHubEnv>(std::move(hub), jobs[i].env);
    lanes[i].dt_hours =
        ec::TimeGrid(jobs[i].env.episode_days, jobs[i].env.slots_per_day).slot_hours();
    lanes[i].r = blank_result(jobs[i], cfg.hub_id_offset + i, hub_seed,
                              lanes[i].env->slots_per_episode());
  }
  const auto layout = lanes.front().env->observation_layout();
  const auto pol =
      ec::sim::make_policy(SchedulerKind::kDrl, 0, layout, jobs.front().checkpoint);
  ec::nn::Matrix obs(n, layout.dim());
  std::vector<std::size_t> actions(n);
  std::vector<std::unique_ptr<ec::policy::Policy::Workspace>> ws;
  for (std::size_t w = 0; w < threads; ++w) ws.push_back(pol->make_workspace());
  const auto row = [&](std::size_t i) {
    return std::span<double>(obs.data().data() + i * layout.dim(), layout.dim());
  };

  const std::size_t slots = slots_of(jobs.front());
  for (std::size_t slot = 0; slot < slots; ++slot) {
    const Scope slot_span(t, id.slot);
    for (std::size_t w = 0; w < threads; ++w) {
      const std::size_t begin = n * w / threads;
      const std::size_t end = n * (w + 1) / threads;
      if (begin == end) continue;
      if (slot == 0) {
        for (std::size_t i = begin; i < end; ++i) {
          bus.drop_pending(i);
          {
            const Scope s(t, id.reset);
            lanes[i].env->reset_into(row(i));
          }
          lanes[i].soc.begin(lanes[i].env->soc_frac());
          stages.run(lanes[i].env->hub());
        }
      }
      {
        const Scope s(t, id.decide_rows);
        pol->decide_rows(obs, begin, end, std::span<std::size_t>(actions), *ws[w]);
      }
      for (std::size_t i = begin; i < end; ++i) {
        Lane& lane = lanes[i];
        ec::core::SlotCoupling sc;
        sc.import_kw = bus.take(i);
        ec::core::StepOutcome sr;
        {
          const Scope s(t, id.step);
          sr = lane.env->step_into(actions[i], row(i), sc);
        }
        bus.deposit(i, sc.export_kw);
        lane.r.through_kwh += sc.through_kw * lane.dt_hours;
        lane.r.spill_exported_kwh += sc.export_kw * lane.dt_hours;
        lane.r.spill_served_kwh += sc.served_import_kw * lane.dt_hours;
        lane.r.spill_dropped_kwh += sc.dropped_import_kw * lane.dt_hours;
        if (sc.outage) ++lane.r.outage_slots;
        lane.soc.sample(lane.env->soc_frac());
        if (sr.done) close_episode(*lane.env, lane.soc, lane.r);
      }
    }
    {
      const Scope s(t, id.exchange);
      bus.exchange();
    }
    if (slot == slots / 2) mid_obs = obs;
  }
  std::vector<HubRunResult> out;
  for (Lane& lane : lanes) out.push_back(std::move(lane.r));
  return out;
}

// ---- sweep-rules ------------------------------------------------------------

struct Sweep {
  std::vector<std::vector<FleetJob>> jobs;  ///< one list per rule scheduler, same hubs
};

Sweep build_sweep(const Options& o) {
  const auto registry = ec::sim::ScenarioRegistry::with_builtins();
  const FleetShape sh = fleet_shape(o);
  Sweep s;
  for (const SchedulerKind kind : kRuleKinds) {
    s.jobs.push_back(ec::sim::make_fleet_jobs(registry, registry.keys(), sh.hubs, sh.days, kind));
  }
  // Warm-up: one engine call per scheduler, so allocator and page-cache
  // start-up cost lands in setup_s rather than in the first timed call.
  const FleetRunner runner(runner_config(o));
  for (const auto& jobs : s.jobs) (void)runner.run(jobs);
  return s;
}

std::vector<std::vector<HubRunResult>> sweep_reference(const Options& o, const Sweep& s) {
  FleetRunnerConfig serial = runner_config(o);
  serial.threads = 1;
  const FleetRunner runner(serial);
  std::vector<std::vector<HubRunResult>> ref;
  for (const auto& jobs : s.jobs) ref.push_back(runner.run(jobs));
  return ref;
}

// ---- metro-drl --------------------------------------------------------------

struct Metro {
  std::vector<FleetJob> jobs;
  std::shared_ptr<const ec::policy::DrlCheckpoint> actor;
  double build_ms = 0.0;  ///< MetroMap + make_metro_fleet_jobs
};

Metro build_metro(const Options& o) {
  const auto registry = ec::sim::ScenarioRegistry::with_builtins();
  const FleetShape sh = fleet_shape(o);
  Metro m;
  m.actor = make_actor(o.seed);
  const std::int64_t t0 = now_ns();
  ec::spatial::MetroConfig mc;
  mc.num_hubs = sh.hubs;
  mc.neighbors_per_hub = 3;
  const ec::spatial::MetroMap map(mc, o.seed);
  m.jobs = ec::sim::make_metro_fleet_jobs(map, registry, registry.keys(), sh.days,
                                          SchedulerKind::kDrl, m.actor);
  m.build_ms = seconds_since(t0) * 1e3;
  (void)FleetRunner(runner_config(o)).run_lockstep(m.jobs);  // warm-up
  return m;
}

std::vector<HubRunResult> metro_reference(const Options& o, const Metro& m) {
  FleetRunnerConfig serial = runner_config(o);
  serial.lockstep_threads = 1;
  return FleetRunner(serial).run_lockstep(m.jobs);
}

/// Repeats `call` until `seconds` have passed and at least `min_calls` ran;
/// returns each call's wall in microseconds.  `check` runs after every call,
/// outside its time.
std::vector<double> time_calls(double seconds, std::size_t min_calls,
                               const std::function<void()>& call,
                               const std::function<void()>& check = [] {}) {
  std::vector<double> call_us;
  const std::int64_t start = now_ns();
  while (seconds_since(start) < seconds || call_us.size() < min_calls) {
    const std::int64_t t0 = now_ns();
    call();
    call_us.push_back(double(now_ns() - t0) / 1e3);
    check();
  }
  return call_us;
}

/// The traced pass's engine window: a share of --seconds for the run's own
/// pass, a single call for an owner pass.
double traced_engine_s(const Options& o, bool full) {
  return full ? o.seconds * kTracedEngineShare : 0.0;
}

double routed_kwh(const std::vector<HubRunResult>& results) {
  double kwh = 0.0;
  for (const HubRunResult& r : results) kwh += r.spill_exported_kwh;
  return kwh;
}

/// Times the actor's layers at the row-block shape each lockstep worker
/// forwards: Dense::forward_rows_into (33->64), the tanh, and the head MLP
/// (64->32->3), on real observation rows and the actor's own weights.
void nn_forward_probe(const ec::policy::DrlCheckpoint& ckpt, const ec::nn::Matrix& obs,
                      std::size_t rows, std::size_t calls, Tracer& t, Outcome& out) {
  ec::policy::DrlPolicy src(ckpt);
  const std::vector<ec::nn::Parameter> weights = src.parameters();
  ec::nn::Rng rng(0);
  const ec::policy::DrlPolicyConfig& cfg = ckpt.config;
  ec::nn::Dense trunk(cfg.state_dim, cfg.trunk_dim, rng);
  const ec::nn::ActivationLayer act(ec::nn::Activation::kTanh);
  ec::nn::MlpConfig head_cfg;
  head_cfg.layer_dims = {cfg.trunk_dim, cfg.head_dim, cfg.action_count};
  ec::nn::Mlp head(head_cfg, rng);
  std::vector<ec::nn::Parameter> dst = trunk.parameters();
  for (const ec::nn::Parameter& p : head.parameters()) dst.push_back(p);
  if (dst.size() != weights.size()) throw std::logic_error("nn probe: actor layout changed");
  for (std::size_t i = 0; i < dst.size(); ++i) {
    if (dst[i].value->rows() != weights[i].value->rows() ||
        dst[i].value->cols() != weights[i].value->cols()) {
      throw std::logic_error("nn probe: actor layer shapes changed");
    }
    *dst[i].value = *weights[i].value;
  }

  const std::uint32_t n_gemm = t.intern("nn.trunk_gemm");
  const std::uint32_t n_tanh = t.intern("nn.trunk_tanh");
  const std::uint32_t n_head = t.intern("nn.head");
  ec::nn::Matrix h;
  std::vector<ec::nn::Matrix> scratch;
  for (std::size_t c = 0; c < calls; ++c) {
    {
      const Scope s(t, n_gemm);
      trunk.forward_rows_into(obs, 0, rows, h);
    }
    {
      const Scope s(t, n_tanh);
      act.forward_inplace(h);
    }
    const Scope s(t, n_head);
    (void)head.forward_rows(h, 0, rows, scratch);
  }
  const auto agg = t.aggregate();
  const double per_row = 1.0 / static_cast<double>(rows);
  const double gemm = agg.at("nn.trunk_gemm").mean_ns() * per_row;
  const double tanh = agg.at("nn.trunk_tanh").mean_ns() * per_row;
  const double head_ns = agg.at("nn.head").mean_ns() * per_row;
  const double flops_per_row = 2.0 * double(cfg.state_dim * cfg.trunk_dim +
                                            cfg.trunk_dim * cfg.head_dim +
                                            cfg.head_dim * cfg.action_count);
  out.add("nn.trunk_gemm_ns_per_row", gemm, "ns");
  out.add("nn.trunk_tanh_ns_per_row", tanh, "ns");
  out.add("nn.head_ns_per_row", head_ns, "ns");
  out.add("nn.forward_gflops", flops_per_row / (gemm + tanh + head_ns), "GFLOP/s");
  out.note("nn.forward_gflops: computed count 2*(33*64+64*32+32*3) = " +
           std::to_string(static_cast<long>(flops_per_row)) + " flops/row over " +
           std::to_string(rows) + "-row blocks, x" + std::to_string(calls) + " calls");
}

}  // namespace

Outcome run_sweep_rules(const Options& o) {
  Sweep sweep;
  const double setup_s = median_setup_s(kSetupReps, [&] { sweep = build_sweep(o); });
  const auto ref = sweep_reference(o, sweep);

  const FleetRunner runner(runner_config(o));
  Outcome out;
  std::vector<std::vector<HubRunResult>> got(sweep.jobs.size());
  const std::vector<double> call_us = time_calls(
      o.seconds, kMinCalls,
      [&] {
        for (std::size_t k = 0; k < sweep.jobs.size(); ++k) got[k] = runner.run(sweep.jobs[k]);
      },
      [&] {
        for (std::size_t k = 0; k < got.size(); ++k) {
          out.attempted += ref[k].size();
          out.failed += count_mismatches(got[k], ref[k]);
          got[k].clear();
        }
      });
  double decisions_per_call = 0.0;
  for (const auto& jobs : sweep.jobs) {
    for (const FleetJob& job : jobs) decisions_per_call += double(slots_of(job));
  }
  const double per_s = decisions_per_call / (median(call_us) * 1e-6);
  add_end_to_end(out, setup_s, per_s, call_us);
  out.derive("hub_days_per_s", per_s / 24.0, "hub-days/s");
  out.note("one latency sample = five FleetRunner::run calls (one per rule scheduler)");
  return out;
}

Outcome run_metro_drl(const Options& o) {
  Metro metro;
  const double setup_s = median_setup_s(kSetupReps, [&] { metro = build_metro(o); });
  const auto ref = metro_reference(o, metro);

  const FleetRunner runner(runner_config(o));
  Outcome out;
  std::vector<HubRunResult> got;
  const std::vector<double> call_us = time_calls(
      o.seconds, kMinCalls, [&] { got = runner.run_lockstep(metro.jobs); },
      [&] {
        out.attempted += ref.size();
        out.failed += count_mismatches(got, ref);
        got.clear();
      });
  double decisions_per_call = 0.0;
  for (const FleetJob& job : metro.jobs) decisions_per_call += double(slots_of(job));
  const double per_s = decisions_per_call / (median(call_us) * 1e-6);
  add_end_to_end(out, setup_s, per_s, call_us);
  out.derive("hub_days_per_s", per_s / 24.0, "hub-days/s");
  out.note("one latency sample = one run_lockstep call");
  return out;
}

Outcome trace_sweep_rules(const Options& o, Tracer& t, bool full) {
  const Sweep sweep = build_sweep(o);
  const FleetRunnerConfig cfg = runner_config(o);
  const FleetRunner runner(cfg);
  const SpanIds id(t);
  Outcome out;

  std::vector<std::vector<HubRunResult>> got(sweep.jobs.size());
  std::vector<double> engine_ms;
  const std::vector<double> sweep_us = time_calls(traced_engine_s(o, full), 1, [&] {
    for (std::size_t k = 0; k < sweep.jobs.size(); ++k) {
      const std::int64_t t0 = now_ns();
      {
        const Scope s(t, id.engine);
        got[k] = runner.run(sweep.jobs[k]);
      }
      engine_ms.push_back(double(now_ns() - t0) / 1e6);
    }
  });

  // The same serial replay twice: unrecorded for busy time and the overhead
  // baseline, then recorded.  Replay walls exclude the stage replays.
  std::vector<std::vector<HubRunResult>> replayed(sweep.jobs.size());
  StageReplay stages(t, fleet_shape(o).days);
  double replay_ns[2] = {0.0, 0.0};
  for (int recorded = 0; recorded < 2; ++recorded) {
    t.set_recording(recorded == 1);
    const double stage_ns = stages.busy_ns();
    const std::int64_t t0 = now_ns();
    const Scope s(t, id.replay);
    for (std::size_t k = 0; k < sweep.jobs.size(); ++k) {
      replayed[k].clear();
      for (std::size_t i = 0; i < sweep.jobs[k].size(); ++i) {
        replayed[k].push_back(replay_job(sweep.jobs[k][i], i, cfg, t, id, stages));
      }
    }
    replay_ns[recorded] = double(now_ns() - t0) - (stages.busy_ns() - stage_ns);
  }
  t.set_recording(true);
  std::size_t unchecked = 0;
  for (std::size_t k = 0; k < sweep.jobs.size(); ++k) {
    if (kRuleKinds[k] == SchedulerKind::kRandom) {
      unchecked += replayed[k].size();
      continue;
    }
    out.attempted += replayed[k].size();
    out.failed += count_mismatches(replayed[k], got[k]);
  }

  const auto agg = t.aggregate();
  add_core_and_stage_metrics(agg, out);
  out.add("policy.decide_ns", agg.at("policy.decide").mean_ns(), "ns");
  out.add("sim.engine_ms", median(engine_ms), "ms");
  out.add("sim.parallel_eff",
          replay_ns[0] / (double(o.threads) * median(sweep_us) * 1e3), "ratio");
  out.add("trace.overhead_frac", replay_ns[1] / replay_ns[0] - 1.0, "ratio");
  out.note("replay: " + std::to_string(out.attempted - out.failed) + "/" +
           std::to_string(out.attempted) + " rule-scheduler hub results == engine; " +
           std::to_string(unchecked) +
           " random-scheduler results unchecked (the engine's policy seed tag is private)");
  return out;
}

Outcome trace_metro_drl(const Options& o, Tracer& t, bool full) {
  Metro metro;
  std::vector<double> build_ms;
  for (std::size_t i = 0; i < kSetupReps; ++i) {
    metro = build_metro(o);
    build_ms.push_back(metro.build_ms);
  }
  const FleetRunnerConfig cfg = runner_config(o);
  const FleetRunner runner(cfg);
  const SpanIds id(t);
  Outcome out;

  std::vector<HubRunResult> got;
  const std::vector<double> call_us = time_calls(traced_engine_s(o, full), 1, [&] {
    const Scope s(t, id.engine);
    got = runner.run_lockstep(metro.jobs);
  });

  ec::nn::Matrix mid_obs;
  StageReplay stages(t, fleet_shape(o).days);
  double replay_ns[2] = {0.0, 0.0};
  for (int recorded = 0; recorded < 2; ++recorded) {
    t.set_recording(recorded == 1);
    const double stage_ns = stages.busy_ns();
    const std::int64_t t0 = now_ns();
    std::vector<HubRunResult> replayed;
    {
      const Scope s(t, id.replay);
      replayed = replay_lockstep(metro.jobs, cfg, o.threads, t, id, stages, mid_obs);
    }
    replay_ns[recorded] = double(now_ns() - t0) - (stages.busy_ns() - stage_ns);
    if (recorded == 1) {
      out.attempted += replayed.size();
      out.failed += count_mismatches(replayed, got);
    }
  }
  t.set_recording(true);

  const std::size_t rows = (metro.jobs.size() + o.threads - 1) / o.threads;
  const auto agg = t.aggregate();
  add_core_and_stage_metrics(agg, out);
  out.add("policy.decide_rows_ns_per_row",
          agg.at("policy.decide_rows").mean_ns() / double(rows), "ns");
  out.add("policy.rows_per_call", double(rows), "rows");
  nn_forward_probe(*metro.actor, mid_obs, rows, o.smoke ? 20 : 4000, t, out);
  out.add("sim.engine_ms", median(call_us) / 1e3, "ms");
  out.add("sim.parallel_eff", replay_ns[0] / (double(o.threads) * median(call_us) * 1e3),
          "ratio");
  out.add("sim.coupling_exchange_ns", agg.at("sim.coupling_exchange").mean_ns(), "ns");
  out.add("sim.routed_kwh", routed_kwh(got), "kWh");
  out.add("spatial.metro_build_ms", median(build_ms), "ms");
  out.add("trace.overhead_frac", replay_ns[1] / replay_ns[0] - 1.0, "ratio");
  out.note("replay: " + std::to_string(out.attempted - out.failed) + "/" +
           std::to_string(out.attempted) + " metro hub results == engine (all rebuildable)");
  return out;
}

}  // namespace perfbench
