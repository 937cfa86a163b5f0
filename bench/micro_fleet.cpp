// Fleet streaming-path micro benches: CCT delta extraction + wire encode
// throughput, decode and merge-apply throughput, and the end-to-end
// aggregator epoch pipeline.
//
// The headline counter is delta_vs_full_x on BM_FleetDeltaExtractEncode:
// encoded bytes of a full-CCT baseline frame divided by the per-epoch delta
// frame at the given churn (Args = {nodes, churn%}). The streaming design
// exists because that ratio is large — at 5% counter churn the delta must
// stay >= 10x smaller than re-shipping the tree.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "adapt/controller.hpp"
#include "cg/call_graph.hpp"
#include "fleet/aggregator.hpp"
#include "fleet/client.hpp"
#include "fleet/wire.hpp"
#include "scorepsim/measurement.hpp"
#include "scorepsim/profile.hpp"
#include "scorepsim/profile_delta.hpp"
#include "support/timer.hpp"

namespace {

using namespace capi;

constexpr std::uint32_t kRegions = 64;

/// A chain-shaped tree of `nodes` distinct CCT nodes (the shape is
/// irrelevant to the SoA sweep; a chain makes every (parent, region) pair
/// unique so childOf never dedups). Counters are seeded so the full-CCT
/// frame carries realistic varint widths.
scorep::ProfileTree chainTree(std::size_t nodes) {
    scorep::ProfileTree tree;
    std::size_t prev = tree.root();
    for (std::size_t i = 1; i < nodes; ++i) {
        prev = tree.childOf(
            prev, static_cast<scorep::RegionHandle>(i % kRegions));
        tree.node(prev).visits += 1 + i % 7;
        tree.node(prev).inclusiveNs += 100 + (i * 37) % 5000;
    }
    return tree;
}

/// Bumps the hot counters on ~`churnPct`% of nodes — one epoch of activity
/// concentrated on a stable hot set, the steady state deltas compress.
void churnCounters(scorep::ProfileTree& tree, std::int64_t churnPct,
                   std::uint64_t epoch) {
    const std::size_t stride =
        std::max<std::size_t>(1, static_cast<std::size_t>(100 / churnPct));
    for (std::size_t i = 1; i < tree.nodeCount(); i += stride) {
        tree.node(i).visits += 1;
        tree.node(i).inclusiveNs += 1000 + epoch % 64;
    }
}

fleet::DeltaFrame frameShell(std::uint64_t epoch) {
    fleet::DeltaFrame frame;
    frame.clientId = 7;
    frame.epoch = epoch;
    frame.coveredEpochs = 1;
    frame.runtimeNs = 1.5e9;
    frame.policyFingerprint = 0x1234'5678'9abc'def0ull;
    return frame;
}

/// The frame a producer with no acked watermark would ship: every node,
/// every counter, every region def. This is the "re-send the whole CCT"
/// baseline the delta ratio is measured against.
std::vector<std::uint8_t> encodeFullCct(const scorep::ProfileTree& tree) {
    fleet::DeltaFrame frame = frameShell(1);
    for (std::uint32_t h = 0; h < kRegions; ++h) {
        frame.newRegions.push_back({h, "region_" + std::to_string(h)});
    }
    frame.cct = scorep::extractCctDelta(tree, scorep::CctWatermark{});
    return fleet::encodeDeltaFrame(frame);
}

/// Extract-and-encode one epoch: the producer-side hot path. Args =
/// {nodes, churn%}. Items/s is nodes swept per second; the counters carry
/// the compression story into BENCH_results.json.
void BM_FleetDeltaExtractEncode(benchmark::State& state) {
    const auto nodes = static_cast<std::size_t>(state.range(0));
    const std::int64_t churnPct = state.range(1);

    scorep::ProfileTree tree = chainTree(nodes);
    const std::uint64_t fullBytes = encodeFullCct(tree).size();
    scorep::CctWatermark watermark;
    scorep::advanceWatermark(watermark, tree);

    std::uint64_t epoch = 0;
    std::uint64_t deltaBytes = 0;
    for (auto _ : state) {
        state.PauseTiming();
        churnCounters(tree, churnPct, ++epoch);
        state.ResumeTiming();
        fleet::DeltaFrame frame = frameShell(epoch);
        frame.cct = scorep::extractCctDelta(tree, watermark);
        const std::vector<std::uint8_t> bytes = fleet::encodeDeltaFrame(frame);
        benchmark::DoNotOptimize(bytes.data());
        deltaBytes += bytes.size();
        scorep::advanceWatermark(watermark, tree);
    }

    const double perEpoch =
        static_cast<double>(deltaBytes) /
        static_cast<double>(std::max<std::uint64_t>(1, state.iterations()));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(nodes));
    state.counters["delta_bytes_per_epoch"] = perEpoch;
    state.counters["full_cct_bytes"] = static_cast<double>(fullBytes);
    state.counters["delta_vs_full_x"] =
        static_cast<double>(fullBytes) / perEpoch;
}
BENCHMARK(BM_FleetDeltaExtractEncode)
    ->Args({4096, 5})
    ->Args({16384, 5})
    ->Args({16384, 1})
    ->Args({65536, 5});

/// Decode throughput of one steady-state delta frame (the aggregator's
/// per-frame door cost before merging).
void BM_FleetDeltaDecode(benchmark::State& state) {
    const auto nodes = static_cast<std::size_t>(state.range(0));
    scorep::ProfileTree tree = chainTree(nodes);
    scorep::CctWatermark watermark;
    scorep::advanceWatermark(watermark, tree);
    churnCounters(tree, 5, 1);
    fleet::DeltaFrame frame = frameShell(2);
    frame.cct = scorep::extractCctDelta(tree, watermark);
    const std::vector<std::uint8_t> bytes = fleet::encodeDeltaFrame(frame);
    const auto changed = static_cast<std::int64_t>(frame.cct.changed.size());

    for (auto _ : state) {
        fleet::DeltaFrame decoded = fleet::decodeDeltaFrame(bytes);
        benchmark::DoNotOptimize(decoded.cct.changed.data());
    }
    state.SetItemsProcessed(state.iterations() * changed);
    state.counters["frame_bytes"] = static_cast<double>(bytes.size());
}
BENCHMARK(BM_FleetDeltaDecode)->Arg(16384)->Arg(65536);

/// Merge-apply throughput: folding a decoded steady-state delta into the
/// fleet tree through the id map (counters accumulate — exactly what the
/// aggregator does every epoch per client).
void BM_FleetDeltaApply(benchmark::State& state) {
    const auto nodes = static_cast<std::size_t>(state.range(0));
    scorep::ProfileTree source = chainTree(nodes);

    scorep::ProfileTree fleetTree;
    std::vector<std::uint32_t> idMap{
        static_cast<std::uint32_t>(fleetTree.root())};
    scorep::applyCctDelta(
        scorep::extractCctDelta(source, scorep::CctWatermark{}), fleetTree,
        idMap);

    scorep::CctWatermark watermark;
    scorep::advanceWatermark(watermark, source);
    churnCounters(source, 5, 1);
    const scorep::CctDelta delta =
        scorep::extractCctDelta(source, watermark);

    for (auto _ : state) {
        scorep::applyCctDelta(delta, fleetTree, idMap);
        benchmark::DoNotOptimize(fleetTree.nodeCount());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(delta.changed.size()));
}
BENCHMARK(BM_FleetDeltaApply)->Arg(16384)->Arg(65536);

/// main -> kernel, noisy, plus filler callees up to `functions` defined
/// functions. Only the first three are ever visited, so the filler stays
/// in the survey policy: the policy is as large as the graph while each
/// epoch moves only a few entries.
cg::CallGraph fleetGraph(std::size_t functions) {
    cg::CallGraph graph;
    auto add = [&](const std::string& name) {
        cg::FunctionDesc desc;
        desc.name = name;
        desc.prettyName = name;
        desc.flags.hasBody = true;
        return graph.addFunction(desc);
    };
    const cg::FunctionId mainFn = add("main");
    graph.addCallEdge(mainFn, add("kernel"));
    graph.addCallEdge(mainFn, add("noisy"));
    for (std::size_t i = 3; i < functions; ++i) {
        graph.addCallEdge(mainFn, add("filler_" + std::to_string(i)));
    }
    return graph;
}

/// End-to-end fleet epoch: N headless clients each extract/encode/send one
/// delta, the aggregator closes the epoch (merge in client order + model +
/// plan) and pushes a policy frame back to every client. Args = {clients,
/// defined functions}. Items/s is policy round trips (client-epochs) per
/// second; us_per_client is the epoch's wall time per client. Beyond the
/// once-per-epoch plan, each client should add the same cost at 3,000
/// functions as at 3: the policy fan-out is O(|delta|) per client.
void BM_FleetEpochPipeline(benchmark::State& state) {
    const auto clientCount = static_cast<std::size_t>(state.range(0));
    const cg::CallGraph graph =
        fleetGraph(static_cast<std::size_t>(state.range(1)));

    fleet::AggregatorOptions options;
    options.config.perEventCostNs = 100.0;
    // Headroom so single-threaded pumping never blocks a send.
    options.dataQueueCapacity = clientCount + 8;
    fleet::Aggregator aggregator(graph, adapt::surveyOfDefinedFunctions(graph),
                                 options);

    std::vector<std::unique_ptr<scorep::Measurement>> measurements;
    std::vector<std::unique_ptr<fleet::FleetClient>> clients;
    for (std::size_t i = 0; i < clientCount; ++i) {
        measurements.push_back(std::make_unique<scorep::Measurement>());
        clients.push_back(std::make_unique<fleet::FleetClient>(aggregator));
    }

    std::uint64_t epoch = 0;
    std::uint64_t epochNs = 0;
    for (auto _ : state) {
        ++epoch;
        const std::uint64_t start = support::nowNs();
        for (std::size_t i = 0; i < clientCount; ++i) {
            scorep::Measurement& measurement = *measurements[i];
            scorep::ProfileTree profile;
            auto touch = [&](const char* name, std::uint64_t visits,
                             std::uint64_t ns) {
                const std::size_t node = profile.childOf(
                    profile.root(), measurement.defineRegion(name));
                profile.node(node).visits += visits;
                profile.node(node).inclusiveNs += ns;
            };
            touch("main", 1, 1000);
            touch("kernel", 10 + (i + epoch) % 3, 1'000'000);
            touch("noisy", 1000, 2000);
            clients[i]->sendEpoch(profile, measurement, 1e9);
        }
        while (aggregator.epochsCompleted() < epoch) {
            aggregator.pump();
        }
        for (auto& client : clients) {
            client->awaitPolicy();
        }
        epochNs += support::nowNs() - start;
    }

    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(clientCount));
    const fleet::AggregatorStats stats = aggregator.stats();
    state.counters["bytes_in_per_frame"] =
        static_cast<double>(stats.bytesIn) /
        static_cast<double>(std::max<std::uint64_t>(1, stats.framesMerged));
    state.counters["us_per_client"] =
        static_cast<double>(epochNs) * 1e-3 /
        static_cast<double>(std::max<std::uint64_t>(1, epoch) * clientCount);
    state.counters["policy_size"] =
        static_cast<double>(aggregator.convergedPolicy().size());
}
BENCHMARK(BM_FleetEpochPipeline)
    ->ArgsProduct({{8, 64, 256}, {3, 3000}});

}  // namespace

BENCHMARK_MAIN();
