// The adaptive loop on LULESH as `capi_tool adapt --ranks 2 --sampled-n 64`
// configures it, shared by lulesh-adapt (which times it) and fleet-stream
// (which records real rank profiles with it during set-up).
#pragma once

#include <array>
#include <memory>

#include "adapt/controller.hpp"
#include "apps/lulesh.hpp"
#include "common.hpp"
#include "dyncapi/dyncapi.hpp"
#include "scorepsim/measurement.hpp"
#include "scorepsim/profile.hpp"

namespace perfbench {

inline constexpr int kRanks = 2;

/// Budget 5%, 200 ns per event, sampled tier on at N = 64, and no epoch cap
/// (the benchmark runs a fixed window and never stops at convergence).
capi::adapt::Config adaptConfig();

/// LULESH with the kernel spin lowered, so probe events rather than the
/// kernels' busy loop set the run time. The model is seeded only when
/// `seeded`; otherwise it keeps LuleshParams' default seed.
capi::apps::LuleshParams luleshParams(const RunConfig& cfg, bool seeded);

struct AdaptiveRig {
    Prepared app;
    std::unique_ptr<capi::dyncapi::DynCapi> dyn;
    std::unique_ptr<capi::adapt::Controller> controller;
    double resolveSeconds = 0.0;  ///< DynCapi construction.
    double startSeconds = 0.0;    ///< Controller::start: full patch of the survey IC.
    capi::dyncapi::InitStats init;
};

/// Set-up: model, graph, builds, load, DynCapi, Controller and its start.
std::unique_ptr<AdaptiveRig> makeRig(Context& ctx, const capi::apps::LuleshParams& params,
                                     bool withVanilla);

/// One adaptive epoch: a 2-rank instrumented run under the Score-P adapter,
/// then Controller::epochAllRanks on every rank.
struct EpochResult {
    double stepMs = 0.0;         ///< runRanks call: run start -> last rank done.
    double appRunMs = 0.0;       ///< Run start -> slowest rank's run end.
    double pauseMs = 0.0;        ///< First rank entering epochAllRanks -> last leaving.
    double rankWaitMs = 0.0;     ///< Gap between the ranks' run end times.
    double reducerEpochMs = 0.0; ///< The reducing (last-arriving) rank's call.
    std::array<capi::adapt::EpochReport, kRanks> reports;
    std::array<capi::binsim::RunStats, kRanks> stats;
    std::uint64_t probeEvents = 0;
    std::uint64_t suppressedEvents = 0;
    /// Kept only when requested: the measurement and each rank's profile
    /// and virtual runtime.
    std::unique_ptr<capi::scorep::Measurement> measurement;
    std::array<capi::scorep::ProfileTree, kRanks> profiles;
    std::array<double, kRanks> runtimeNs{};
};

EpochResult runEpoch(Context& ctx, AdaptiveRig& rig, bool keepProfiles);

/// The vanilla reference: the same 2-rank run of the build without XRay.
/// Returns the slowest rank's run time in ms.
double runVanilla(Context& ctx, capi::binsim::Process& vanilla, std::uint64_t& dynamicCalls);

}  // namespace perfbench
