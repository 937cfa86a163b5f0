// fleet-stream: 64 headless FleetClients and one Aggregator over the LULESH
// graph, driven in lockstep from this thread: a client sends epoch e+1 only
// after its policy for epoch e arrived. Each client's epoch profile is a real
// LULESH rank profile recorded in set-up by the adaptive loop and picked per
// (seed, client, epoch), so the frames carry measured traffic. Wire codec,
// channel and aggregator merge carry the load; the planner over 3.4k nodes
// is small.
#include <map>
#include <set>

#include "adaptive.hpp"
#include "fleet/aggregator.hpp"
#include "fleet/client.hpp"
#include "support/hash.hpp"
#include "support/timer.hpp"

namespace perfbench {

using namespace capi;

namespace {

constexpr std::size_t kClients = 64;
constexpr std::size_t kTinyClients = 8;
constexpr int kSettleEpochs = 8;
constexpr int kRecordedEpochs = 16;

struct RecordedProfile {
    scorep::ProfileTree profile;  ///< In the canonical measurement's handles.
    double runtimeNs = 0.0;
};

/// Rebuilds `from` (handles of `source`) in `canon`'s handle space.
scorep::ProfileTree remap(const scorep::ProfileTree& from, const scorep::Measurement& source,
                          const std::map<std::string, scorep::RegionHandle>& canonHandle) {
    scorep::ProfileTree out;
    std::vector<std::size_t> index(from.nodeCount(), out.root());
    for (std::size_t i = 1; i < from.nodeCount(); ++i) {
        const std::string& name = source.region(from.regionOf(i)).name;
        index[i] = out.childOf(index[from.parentOf(i)], canonHandle.at(name));
        const scorep::ProfileNode node = from.node(i);
        out.node(index[i]).visits += node.visits;
        out.node(index[i]).inclusiveNs += node.inclusiveNs;
    }
    return out;
}

struct Fleet {
    std::unique_ptr<AdaptiveRig> rig;
    std::unique_ptr<scorep::Measurement> canon;
    std::vector<RecordedProfile> pool;
    std::unique_ptr<fleet::Aggregator> aggregator;
    std::vector<std::unique_ptr<fleet::FleetClient>> clients;
    Samples patchMs, flips, usPerFlip, pages, events, suppressed, dynamicCalls;
    std::size_t recordedInBudget = 0;  ///< Recorded epochs that met the budget.
};

std::unique_ptr<Fleet> setUp(Context& ctx, std::size_t clientCount) {
    auto f = std::make_unique<Fleet>();
    // The seed drives the replay schedule; the recorded model stays fixed.
    f->rig = makeRig(ctx, luleshParams(ctx.config, false), false);
    std::vector<EpochResult> recorded;
    {
        Scope rec(ctx.spans, "bench", "record_profiles");
        // Profiles are recorded after the loop has settled: the clients
        // replay them whatever policy comes back, so pre-convergence traffic
        // would keep the fleet over budget and trip the kill switch. The
        // count is fixed so every set-up does the same work.
        for (int e = 0; e < kSettleEpochs; ++e) {
            runEpoch(ctx, *f->rig, false);
        }
        const int epochs = ctx.config.tiny ? 2 : kRecordedEpochs;
        for (int e = 0; e < epochs; ++e) {
            recorded.push_back(runEpoch(ctx, *f->rig, true));
            f->recordedInBudget += recorded.back().reports[0].withinBudget ? 1 : 0;
            const dyncapi::DeltaStats& patch = recorded.back().reports[0].patch;
            const std::size_t n = patch.functionsPatched + patch.functionsUnpatched +
                                  patch.functionsPromoted + patch.functionsDemoted;
            f->patchMs.add(patch.patchSeconds * 1e3);
            f->flips.add(static_cast<double>(n));
            if (n > 0) f->usPerFlip.add(patch.patchSeconds * 1e6 / static_cast<double>(n));
            f->pages.add(static_cast<double>(patch.pagesTouched));
            f->events.add(static_cast<double>(recorded.back().probeEvents));
            f->suppressed.add(static_cast<double>(recorded.back().suppressedEvents));
            const auto& stats = recorded.back().stats;
            f->dynamicCalls.add(static_cast<double>(stats[0].dynamicCalls + stats[1].dynamicCalls));
        }
    }
    {
        Scope s(ctx.spans, "scorepsim", "rebuild_profiles");
        std::set<std::string> names;
        for (const EpochResult& r : recorded) {
            for (scorep::RegionHandle h = 0; h < r.measurement->regionCount(); ++h) {
                names.insert(r.measurement->region(h).name);
            }
        }
        f->canon = std::make_unique<scorep::Measurement>();
        std::map<std::string, scorep::RegionHandle> canonHandle;
        for (const std::string& name : names) canonHandle[name] = f->canon->defineRegion(name);
        for (const EpochResult& r : recorded) {
            for (int rank = 0; rank < kRanks; ++rank) {
                f->pool.push_back({remap(r.profiles[rank], *r.measurement, canonHandle),
                                   r.runtimeNs[rank]});
            }
        }
    }
    fleet::AggregatorOptions options;
    options.config = adaptConfig();
    options.dataQueueCapacity = clientCount + 8;  // one frame per client in flight
    {
        Scope s(ctx.spans, "fleet", "register");
        f->aggregator = std::make_unique<fleet::Aggregator>(
            f->rig->app.graph, adapt::surveyOfDefinedFunctions(f->rig->app.graph), options);
        for (std::size_t i = 0; i < clientCount; ++i) {
            f->clients.push_back(std::make_unique<fleet::FleetClient>(*f->aggregator));
        }
    }
    return f;
}

}  // namespace

void runFleetStream(Context& ctx) {
    const RunConfig& cfg = ctx.config;
    const std::size_t clientCount = cfg.tiny ? kTinyClients : kClients;
    std::unique_ptr<Fleet> f = repeatSetup(ctx, [&] { return setUp(ctx, clientCount); });
    fleet::Aggregator& aggregator = *f->aggregator;

    Samples epochMs, stepRel, sendMs, pumpUsPerClient, awaitUs, tracedStep, untracedStep;
    const double window = cfg.tiny ? 0.5 : cfg.seconds;
    const std::uint64_t windowStart = support::nowNs();
    std::uint64_t epoch = 0;
    std::size_t inBudget = 0;
    std::size_t policyChanges = 0;
    std::uint64_t lastPolicy = 0;
    while (epoch == 0 || secondsSince(windowStart) < window) {
        ++epoch;
        const bool traceEpoch = cfg.trace && epoch % 2 == 0;
        ctx.spans.setEnabled(traceEpoch);
        ctx.spans.setRound(epoch);
        ctx.ops.begin("fleet epoch " + std::to_string(epoch));
        const double calibration = calibrationMs();
        std::size_t backpressured = 0;
        adapt::EpochReport report;
        std::uint64_t pumpNs = 0;
        const std::uint64_t t0 = support::nowNs();
        {
            Scope root(ctx.spans, "bench", "fleet_epoch");
            for (std::size_t i = 0; i < clientCount; ++i) {
                const std::uint64_t pick =
                    support::hashCombine(support::hashCombine(cfg.seed, i), epoch) % f->pool.size();
                const RecordedProfile& p = f->pool[pick];
                const std::uint64_t s0 = support::nowNs();
                fleet::SendResult sent;
                {
                    Scope s(ctx.spans, "fleet", "send_epoch");
                    sent = f->clients[i]->sendEpoch(p.profile, *f->canon, p.runtimeNs);
                }
                const std::uint64_t s1 = support::nowNs();
                sendMs.add(static_cast<double>(s1 - s0) * 1e-6);
                backpressured += sent == fleet::SendResult::Ok ? 0 : 1;
                // Single thread: drain as we go, so a blocking send never
                // waits on a pump that cannot happen.
                {
                    Scope s(ctx.spans, "fleet", "pump");
                    aggregator.pump();
                }
                pumpNs += support::nowNs() - s1;
            }
            while (aggregator.epochsCompleted() < epoch) {
                const std::uint64_t p0 = support::nowNs();
                bool progressed = false;
                {
                    Scope s(ctx.spans, "fleet", "pump");
                    progressed = aggregator.pump();
                }
                pumpNs += support::nowNs() - p0;
                if (!progressed) break;
            }
            for (std::size_t i = 0; i < clientCount; ++i) {
                const std::uint64_t a0 = support::nowNs();
                {
                    Scope s(ctx.spans, "fleet", "await_policy");
                    report = f->clients[i]->awaitPolicy();
                }
                awaitUs.add(static_cast<double>(support::nowNs() - a0) * 1e-3);
            }
        }
        const double ms = static_cast<double>(support::nowNs() - t0) * 1e-6;
        epochMs.add(ms);
        stepRel.add(ms / calibration);
        (traceEpoch ? tracedStep : untracedStep).add(ms);
        pumpUsPerClient.add(static_cast<double>(pumpNs) * 1e-3 / static_cast<double>(clientCount));
        ctx.ops.check(backpressured == 0, "sendEpoch did not enqueue its frame");
        ctx.ops.check(aggregator.epochsCompleted() == epoch, "aggregator did not close the epoch");
        inBudget += report.withinBudget ? 1 : 0;
        policyChanges += report.policyFingerprint != lastPolicy ? 1 : 0;
        lastPolicy = report.policyFingerprint;
    }
    ctx.spans.setEnabled(cfg.trace);

    ctx.ops.begin("fleet final state");
    const fleet::AggregatorStats stats = aggregator.stats();
    const std::uint64_t converged = aggregator.convergedFingerprint();
    std::uint64_t clientResyncs = 0;
    std::size_t diverged = 0;
    for (const auto& client : f->clients) {
        diverged += client->policyFingerprint() == converged ? 0 : 1;
        clientResyncs += client->stats().resyncs;
    }
    ctx.ops.check(diverged == 0, std::to_string(diverged) + " clients off convergedFingerprint()");
    ctx.ops.check(stats.framesMerged == clientCount * epoch, "framesMerged != clients x epochs");
    ctx.ops.check(stats.decodeErrors == 0, "decode errors");
    ctx.ops.check(stats.resyncs == 0 && clientResyncs == 0, "resyncs");

    ctx.endToEnd.push_back({"setup_s", ctx.setupSeconds.median(), "s",
                            ctx.setupSeconds.count(), "median of set-ups"});
    addStepMetrics(ctx, epochMs, stepRel);

    ctx.detail.push_back({"fleet_send_us_p50", sendMs.median() * 1e3, "us", sendMs.count(), ""});
    ctx.detail.push_back({"fleet.pump_us_per_client", pumpUsPerClient.median(), "us",
                          pumpUsPerClient.count(), ""});
    ctx.detail.push_back({"fleet.await_us", awaitUs.median(), "us", awaitUs.count(), ""});
    ctx.facts.push_back({"clients", std::to_string(clientCount)});
    ctx.facts.push_back({"fleet.policy_changes", std::to_string(policyChanges)});
    ctx.facts.push_back({"fleet_epochs", std::to_string(epoch)});
    ctx.facts.push_back({"recorded_profiles", std::to_string(f->pool.size())});
    std::size_t poolNodes = 0;
    for (const RecordedProfile& p : f->pool) poolNodes += p.profile.nodeCount();
    ctx.facts.push_back({"recorded_profile_nodes", std::to_string(poolNodes)});
    ctx.facts.push_back({"recorded_epochs_in_budget", std::to_string(f->recordedInBudget)});
    char fingerprint[32];
    std::snprintf(fingerprint, sizeof fingerprint, "%016llx",
                  static_cast<unsigned long long>(converged));
    ctx.facts.push_back({"fleet.converged_policy", fingerprint});

    const double frames = static_cast<double>(stats.framesMerged);
    const double policyFrames = static_cast<double>(stats.policyFramesSent);
    ctx.perLayer.push_back({"dyncapi.resolve_s", f->rig->resolveSeconds, "s", 1, "recording rig"});
    ctx.perLayer.push_back({"dyncapi.apply_ic_ms", f->rig->startSeconds * 1e3, "ms", 1,
                            "Controller::start, survey IC (recording rig)"});
    ctx.perLayer.push_back({"dyncapi.delta_ms", f->patchMs.median(), "ms", f->patchMs.count(),
                            "recording epochs"});
    ctx.perLayer.push_back({"dyncapi.delta_flips", f->flips.median(), "count", f->flips.count(), ""});
    ctx.perLayer.push_back({"dyncapi.delta_us_per_flip", f->usPerFlip.median(), "us",
                            f->usPerFlip.count(), ""});
    ctx.perLayer.push_back({"dyncapi.pages_per_delta", f->pages.median(), "count",
                            f->pages.count(), ""});
    ctx.perLayer.push_back({"scorepsim.probe_events", f->events.median(), "count",
                            f->events.count(), "recording epochs"});
    ctx.perLayer.push_back({"scorepsim.suppressed_events", f->suppressed.median(), "count",
                            f->suppressed.count(), "recording epochs"});
    ctx.perLayer.push_back({"binsim.dynamic_calls", f->dynamicCalls.median(), "count",
                            f->dynamicCalls.count(), "recording 2-rank runs"});
    ctx.perLayer.push_back({"adapt.ic_size", static_cast<double>(aggregator.convergedPolicy().size()),
                            "count", 1, "fleet policy"});
    ctx.perLayer.push_back({"adapt.in_budget_ratio",
                            static_cast<double>(inBudget) / static_cast<double>(epoch), "ratio",
                            epoch, "fleet epochs"});
    ctx.perLayer.push_back({"fleet.bytes_in_per_frame",
                            frames > 0 ? static_cast<double>(stats.bytesIn) / frames : 0.0, "B",
                            stats.framesMerged, ""});
    ctx.perLayer.push_back({"fleet.bytes_out_per_frame",
                            policyFrames > 0 ? static_cast<double>(stats.bytesOut) / policyFrames
                                             : 0.0,
                            "B", stats.policyFramesSent, ""});
    ctx.perLayer.push_back({"fleet.resyncs", static_cast<double>(stats.resyncs + clientResyncs),
                            "count", 1, ""});
    ctx.perLayer.push_back({"fleet.decode_errors", static_cast<double>(stats.decodeErrors),
                            "count", 1, ""});
    if (cfg.trace) addTraceOverhead(ctx, tracedStep, untracedStep);
}

}  // namespace perfbench
