#include "adaptive.hpp"

#include <algorithm>
#include <limits>

#include "apps/lulesh.hpp"
#include "binsim/execution_engine.hpp"
#include "dyncapi/mpi_port.hpp"
#include "mpisim/mpi_world.hpp"
#include "scorepsim/cyg_adapter.hpp"
#include "scorepsim/symbol_resolver.hpp"
#include "support/timer.hpp"

namespace perfbench {

using namespace capi;

adapt::Config adaptConfig() {
    adapt::Config config;
    config.budgetFraction = 0.05;
    config.perEventCostNs = 200.0;
    config.enableSampledTier = true;
    config.sampledEveryN = 64;
    config.maxEpochs = std::numeric_limits<std::size_t>::max();
    return config;
}

apps::LuleshParams luleshParams(const RunConfig& cfg, bool seeded) {
    apps::LuleshParams params;
    if (seeded) params.seed = cfg.seed;
    params.kernelWorkUnits = 3000;
    if (cfg.tiny) params.iterations = 10;
    return params;
}

std::unique_ptr<AdaptiveRig> makeRig(Context& ctx, const apps::LuleshParams& params,
                                     bool withVanilla) {
    auto rig = std::make_unique<AdaptiveRig>();
    rig->app = prepare(ctx, [&] { return apps::makeLulesh(params); }, withVanilla);
    Scope start(ctx.spans, "bench", "start");
    std::uint64_t t0 = support::nowNs();
    {
        Scope s(ctx.spans, "dyncapi", "construct");
        rig->dyn = std::make_unique<dyncapi::DynCapi>(*rig->app.process);
    }
    rig->resolveSeconds = secondsSince(t0);
    rig->controller =
        std::make_unique<adapt::Controller>(rig->app.graph, *rig->dyn, adaptConfig());
    select::InstrumentationConfig survey = adapt::surveyOfDefinedFunctions(rig->app.graph);
    survey.application = "lulesh";
    t0 = support::nowNs();
    {
        Scope s(ctx.spans, "adapt", "start");
        rig->init = rig->controller->start(std::move(survey));
    }
    rig->startSeconds = secondsSince(t0);
    return rig;
}

EpochResult runEpoch(Context& ctx, AdaptiveRig& rig, bool keepProfiles) {
    EpochResult out;
    binsim::Process& process = *rig.app.process;
    adapt::Controller& controller = *rig.controller;
    const adapt::Config& config = controller.config();

    auto measurement = std::make_unique<scorep::Measurement>();
    std::unique_ptr<scorep::CygProfileAdapter> adapter;
    {
        Scope s(ctx.spans, "scorepsim", "attach");
        adapter = std::make_unique<scorep::CygProfileAdapter>(
            *measurement, scorep::SymbolResolver::withSymbolInjection(process));
        rig.dyn->attachScorePHandler(*adapter);
    }

    mpi::MpiWorld world(kRanks);
    dyncapi::WorldMpiPort port(world);
    std::array<std::uint64_t, kRanks> runEnd{}, enter{}, leave{};
    const std::uint64_t t0 = support::nowNs();
    {
        Scope ranks(ctx.spans, "mpisim", "run_ranks");
        const int parent = ranks.id();
        mpi::runRanks(world, [&](int rank) {
            // Only rank 0 is traced, so sibling spans never overlap.
            SpanRecorder& spans = ctx.spans;
            const bool traced = rank == 0;
            binsim::RunStats stats;
            {
                const int id = traced ? spans.begin("binsim", "run", parent) : -1;
                binsim::ExecutionEngine engine(process);
                engine.setMpiPort(&port);
                stats = engine.run(rank, kRanks);
                spans.end(id);
            }
            runEnd[rank] = support::nowNs();
            const scorep::ProfileTree& profile = measurement->threadProfile();
            const double runtimeNs = adapt::virtualEpochRuntimeNs(
                stats, *measurement, config.perEventCostNs, config.gateCostNs);
            enter[rank] = support::nowNs();
            const int id = traced ? spans.begin("adapt", "epoch_all_ranks", parent) : -1;
            out.reports[rank] = controller.epochAllRanks(world, rank, stats.virtualNs, profile,
                                                         *measurement, runtimeNs);
            spans.end(id);
            leave[rank] = support::nowNs();
            out.stats[rank] = stats;
            if (keepProfiles) {
                out.profiles[rank] = profile;
                out.runtimeNs[rank] = runtimeNs;
            }
        });
    }
    const std::uint64_t t1 = support::nowNs();
    {
        Scope s(ctx.spans, "dyncapi", "detach");
        rig.dyn->detachHandler();
    }

    const auto ms = [](std::uint64_t a, std::uint64_t b) {
        return b > a ? static_cast<double>(b - a) * 1e-6 : 0.0;
    };
    out.stepMs = ms(t0, t1);
    out.appRunMs = ms(t0, *std::max_element(runEnd.begin(), runEnd.end()));
    out.pauseMs = ms(*std::min_element(enter.begin(), enter.end()),
                     *std::max_element(leave.begin(), leave.end()));
    out.rankWaitMs = ms(std::min(runEnd[0], runEnd[1]), std::max(runEnd[0], runEnd[1]));
    const int reducer = enter[1] > enter[0] ? 1 : 0;
    out.reducerEpochMs = ms(enter[reducer], leave[reducer]);
    out.probeEvents = measurement->probeEvents();
    out.suppressedEvents = measurement->suppressedEvents();
    if (keepProfiles) out.measurement = std::move(measurement);
    return out;
}

double runVanilla(Context& ctx, binsim::Process& vanilla, std::uint64_t& dynamicCalls) {
    mpi::MpiWorld world(kRanks);
    dyncapi::WorldMpiPort port(world);
    std::array<std::uint64_t, kRanks> runEnd{};
    std::array<std::uint64_t, kRanks> calls{};
    const std::uint64_t t0 = support::nowNs();
    Scope ranks(ctx.spans, "mpisim", "run_ranks");
    const int parent = ranks.id();
    mpi::runRanks(world, [&](int rank) {
        const int id = rank == 0 ? ctx.spans.begin("binsim", "vanilla_run", parent) : -1;
        binsim::ExecutionEngine engine(vanilla);
        engine.setMpiPort(&port);
        calls[rank] = engine.run(rank, kRanks).dynamicCalls;
        ctx.spans.end(id);
        runEnd[rank] = support::nowNs();
    });
    dynamicCalls = calls[0] + calls[1];
    return static_cast<double>(*std::max_element(runEnd.begin(), runEnd.end()) - t0) * 1e-6;
}

}  // namespace perfbench
