// lulesh-adapt: the adaptive loop on LULESH with 2 simulated MPI ranks. The
// probe path (binsim execution, XRay trampolines, Score-P enter/exit and the
// sampling gate) and the per-epoch control plane (collective, model, planner,
// delta patch) carry the load; the graph is small, so selection is not.
// Every instrumented run is followed by the same run of a vanilla build.
#include <cstdio>

#include "adaptive.hpp"
#include "support/timer.hpp"

namespace perfbench {

using namespace capi;

void runLuleshAdapt(Context& ctx) {
    const RunConfig& cfg = ctx.config;
    Samples resolveS, startMs;
    std::unique_ptr<AdaptiveRig> rig = repeatSetup(ctx, [&] {
        std::unique_ptr<AdaptiveRig> made = makeRig(ctx, luleshParams(cfg, true), true);
        resolveS.add(made->resolveSeconds);
        startMs.add(made->startSeconds * 1e3);
        return made;
    });
    ctx.ops.begin("start");
    ctx.ops.check(rig->init.patchedFunctions + rig->init.requestedUnavailable ==
                      rig->init.requestedFunctions,
                  "Controller::start: patched + unavailable != requested");
    const double budget = rig->controller->config().budgetFraction;

    Samples step, stepRel, pause, appRun, vanillaRun, rankWait, reducerEpoch, patchMs;
    Samples flips, usPerFlip, pages, nsPerEvent, events, suppressed, dynamicCalls;
    Samples tracedStep, untracedStep;
    std::size_t inBudget = 0;
    bool converged = false;
    adapt::EpochReport last;
    const double window = cfg.tiny ? 0.5 : cfg.seconds;
    const std::uint64_t windowStart = support::nowNs();
    for (std::uint64_t e = 1; e == 1 || secondsSince(windowStart) < window; ++e) {
        const bool traceEpoch = cfg.trace && e % 2 == 0;
        ctx.spans.setEnabled(traceEpoch);
        ctx.spans.setRound(e);
        ctx.ops.begin("epoch " + std::to_string(e));
        const double calibration = calibrationMs();
        EpochResult r;
        {
            Scope root(ctx.spans, "bench", "epoch");
            r = runEpoch(ctx, *rig, false);
        }
        std::uint64_t calls = 0;
        double vanillaMs = 0.0;
        {
            Scope root(ctx.spans, "bench", "reference");
            vanillaMs = runVanilla(ctx, *rig->app.vanilla, calls);
        }

        step.add(r.stepMs);
        stepRel.add(r.stepMs / calibration);
        (traceEpoch ? tracedStep : untracedStep).add(r.stepMs);
        pause.add(r.pauseMs);
        appRun.add(r.appRunMs);
        vanillaRun.add(vanillaMs);
        rankWait.add(r.rankWaitMs);
        reducerEpoch.add(r.reducerEpochMs);
        const adapt::EpochReport& report = r.reports[0];
        patchMs.add(report.patch.patchSeconds * 1e3);
        const std::size_t f = report.patch.functionsPatched + report.patch.functionsUnpatched +
                              report.patch.functionsPromoted + report.patch.functionsDemoted;
        flips.add(static_cast<double>(f));
        if (f > 0) usPerFlip.add(report.patch.patchSeconds * 1e6 / static_cast<double>(f));
        pages.add(static_cast<double>(report.patch.pagesTouched));
        events.add(static_cast<double>(r.probeEvents));
        suppressed.add(static_cast<double>(r.suppressedEvents));
        dynamicCalls.add(static_cast<double>(calls));
        if (r.probeEvents > 0) {
            nsPerEvent.add((r.appRunMs - vanillaMs) * 1e6 / static_cast<double>(r.probeEvents));
        }
        if (report.withinBudget) ++inBudget;

        for (int rank = 0; rank < kRanks; ++rank) {
            ctx.ops.check(r.reports[rank].divergentRanks == 0,
                          "rank " + std::to_string(rank) + " reports divergent ranks");
        }
        ctx.ops.check(rig->controller->healthStats().patchFailures == 0,
                      "HealthStats shows patch failures");
        if (converged) {
            char what[96];
            std::snprintf(what, sizeof what, "overhead %.4f above budget %.4f after convergence",
                          report.measuredOverheadRatio, budget);
            ctx.ops.check(report.measuredOverheadRatio <= budget, what);
        }
        converged = converged || report.withinBudget;
        last = report;
    }
    ctx.spans.setEnabled(cfg.trace);

    ctx.endToEnd.push_back({"setup_s", ctx.setupSeconds.median(), "s",
                            ctx.setupSeconds.count(), "median of set-ups"});
    addStepMetrics(ctx, step, stepRel);

    const double overhead = vanillaRun.median() > 0 ? appRun.median() / vanillaRun.median() : 0.0;
    ctx.detail.push_back({"app_run_ms_p50", appRun.median(), "ms", appRun.count(), "slowest rank"});
    ctx.detail.push_back({"overhead_x", overhead, "ratio", appRun.count(),
                          "median instrumented run / median vanilla run"});
    addTiming(ctx.detail, "epoch_pause_ms", "ms", pause);
    ctx.detail.push_back({"binsim.vanilla_run_ms", vanillaRun.median(), "ms", vanillaRun.count(), ""});
    ctx.detail.push_back({"scorepsim.ns_per_event", nsPerEvent.median(), "ns", nsPerEvent.count(),
                          "(instrumented - vanilla run) / events"});
    ctx.detail.push_back({"mpisim.rank_wait_ms", rankWait.median(), "ms", rankWait.count(), ""});
    ctx.detail.push_back({"adapt.epoch_ms", reducerEpoch.median(), "ms", reducerEpoch.count(),
                          "reducing rank's epochAllRanks"});
    ctx.detail.push_back({"adapt.patch_ms", patchMs.median(), "ms", patchMs.count(),
                          "EpochReport.patch.patchSeconds"});
    ctx.detail.push_back({"adapt.flips_per_epoch", flips.median(), "count", flips.count(), ""});

    const double epochs = static_cast<double>(step.count());
    char fingerprint[32];
    std::snprintf(fingerprint, sizeof fingerprint, "%016llx",
                  static_cast<unsigned long long>(last.policyFingerprint));
    ctx.facts.push_back({"adapt.final_policy", fingerprint});
    ctx.facts.push_back({"adapt.ic_size", std::to_string(last.icSize)});
    ctx.facts.push_back({"graph_nodes", std::to_string(rig->app.graph.size())});

    ctx.perLayer.push_back({"dyncapi.resolve_s", resolveS.median(), "s", resolveS.count(), ""});
    ctx.perLayer.push_back({"dyncapi.apply_ic_ms", startMs.median(), "ms", startMs.count(),
                            "Controller::start, survey IC"});
    ctx.perLayer.push_back({"dyncapi.delta_ms", patchMs.median(), "ms", patchMs.count(),
                            "EpochReport.patch.patchSeconds"});
    ctx.perLayer.push_back({"dyncapi.delta_flips", flips.median(), "count", flips.count(), ""});
    ctx.perLayer.push_back({"dyncapi.delta_us_per_flip", usPerFlip.median(), "us",
                            usPerFlip.count(), "epochs with flips"});
    ctx.perLayer.push_back({"dyncapi.pages_per_delta", pages.median(), "count", pages.count(), ""});
    ctx.perLayer.push_back({"binsim.dynamic_calls", dynamicCalls.median(), "count",
                            dynamicCalls.count(), "vanilla 2-rank run"});
    ctx.perLayer.push_back({"scorepsim.probe_events", events.median(), "count", events.count(), ""});
    ctx.perLayer.push_back({"scorepsim.suppressed_events", suppressed.median(), "count",
                            suppressed.count(), ""});
    ctx.perLayer.push_back({"adapt.ic_size", static_cast<double>(last.icSize),
                            "count", 1, "final IC"});
    ctx.perLayer.push_back({"adapt.in_budget_ratio", static_cast<double>(inBudget) / epochs,
                            "ratio", step.count(), ""});
    if (cfg.trace) addTraceOverhead(ctx, tracedStep, untracedStep);
}

}  // namespace perfbench
