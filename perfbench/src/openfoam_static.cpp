// openfoam-static: the static CaPI -> DynCaPI workflow on the selection-scale
// OpenFOAM model. Selection, the CG, the spec engine and the patcher carry
// the load; no probe, controller or fleet code runs. The refinement cycle
// mpi -> mpi coarse -> kernels -> kernels coarse -> mpi mixes few-flip and
// many-thousand-flip repatches.
#include <algorithm>
#include <map>

#include "apps/openfoam.hpp"
#include "apps/specs.hpp"
#include "common.hpp"
#include "dyncapi/dyncapi.hpp"
#include "dyncapi/process_symbol_oracle.hpp"
#include "dyncapi/refinement.hpp"
#include "select/selection_driver.hpp"
#include "support/timer.hpp"

namespace perfbench {

using namespace capi;

namespace {

constexpr std::uint32_t kNodes = 41067;

/// "mpi coarse" -> "mpi_coarse", for metric names.
std::string metricName(std::string specName) {
    std::replace(specName.begin(), specName.end(), ' ', '_');
    std::replace(specName.begin(), specName.end(), '-', '_');
    return specName;
}

std::vector<xray::PackedId> patchedSet(binsim::Process& process) {
    std::vector<xray::PackedId> ids = process.xray().patchedFunctions();
    std::sort(ids.begin(), ids.end());
    return ids;
}

bool fullApplyConsistent(const dyncapi::InitStats& s) {
    return s.patchedFunctions + s.requestedUnavailable == s.requestedFunctions;
}

std::size_t flipsOf(const dyncapi::DeltaStats& d) {
    return d.functionsPatched + d.functionsUnpatched + d.functionsPromoted + d.functionsDemoted;
}

bool deltaConsistent(const dyncapi::DeltaStats& d) {
    const std::size_t patchedAfter = d.functionsPatched + d.functionsUnchanged +
                                     d.functionsPromoted + d.functionsDemoted;
    return patchedAfter + d.requestedUnavailable == d.requestedFunctions;
}

}  // namespace

void runOpenFoamStatic(Context& ctx) {
    const RunConfig& cfg = ctx.config;
    // A selection-scale model with a tenth of the paper's 410,666 nodes: at
    // full size the steps were memory-bound enough that the host's load
    // phases moved whole ten-run sets by 35%.
    apps::OpenFoamParams params = apps::OpenFoamParams::selectionScale();
    params.targetNodes = cfg.tiny ? 20000 : kNodes;
    params.seed = cfg.seed;

    // --- set-up -------------------------------------------------------------
    std::unique_ptr<Prepared> app = repeatSetup(ctx, [&] {
        return std::make_unique<Prepared>(
            prepare(ctx, [&] { return apps::makeOpenFoam(params); }, false));
    });
    binsim::Process& process = *app->process;
    const cg::CallGraph& graph = app->graph;

    std::vector<std::string> hidden;
    for (const binsim::AppFunction& fn : process.program().model.functions) {
        if (fn.flags.hiddenVisibility) hidden.push_back(fn.name);
    }
    auto hiddenSelected = [&](const select::InstrumentationConfig& ic) {
        std::size_t n = 0;
        for (const std::string& name : hidden) n += ic.contains(name) ? 1 : 0;
        return n;
    };

    static const spec::ModuleResolver resolver = apps::bundledResolver();
    dyncapi::ProcessSymbolOracle oracle(process.program());
    select::SelectionOptions base;
    base.resolver = &resolver;
    base.symbolOracle = &oracle;
    const std::vector<apps::NamedSpec> specs = apps::evaluationSpecs();

    // --- start: Tinit and cold selection (Table I, Table II) -------------------
    ctx.ops.begin("start");
    std::uint64_t t0 = support::nowNs();
    std::unique_ptr<dyncapi::DynCapi> dyn;
    {
        Scope s(ctx.spans, "dyncapi", "construct");
        dyn = std::make_unique<dyncapi::DynCapi>(process);
    }
    const double resolveS = secondsSince(t0);

    std::map<std::string, select::InstrumentationConfig> coldIc;
    double selectS = 0.0;
    {
        Scope start(ctx.spans, "bench", "cold_selection");
        for (const apps::NamedSpec& spec : specs) {
            select::SelectionOptions options = base;
            options.specText = spec.text;
            options.specName = spec.name;
            t0 = support::nowNs();
            select::SelectionReport report;
            {
                Scope s(ctx.spans, "select", "cold_" + metricName(spec.name));
                report = select::runSelection(graph, options);
            }
            const double sec = secondsSince(t0);
            selectS += sec;
            ctx.detail.push_back({"select.cold_" + metricName(spec.name) + "_s", sec, "s", 1, ""});
            ctx.ops.check(hiddenSelected(report.ic) == 0,
                          "IC '" + spec.name + "' selects a hidden function");
            coldIc[spec.name] = std::move(report.ic);
        }
    }

    t0 = support::nowNs();
    dyncapi::InitStats init;
    {
        Scope s(ctx.spans, "dyncapi", "apply_ic");
        init = dyn->applyIc(coldIc.at("mpi"));
    }
    const double applyS = secondsSince(t0);
    ctx.ops.check(fullApplyConsistent(init), "applyIc(mpi): patched + unavailable != requested");

    // --- refinement session, warmed by one untimed cycle ---------------------
    dyncapi::RefinementSession session(graph, 1);
    const std::vector<std::string> cycle = {"mpi coarse", "kernels", "kernels coarse", "mpi"};
    std::map<std::string, std::string> textOf;
    for (const apps::NamedSpec& spec : specs) textOf[spec.name] = spec.text;
    {
        Scope warm(ctx.spans, "bench", "session_warmup");
        for (const std::string& name : cycle) {
            ctx.ops.begin("warm-up select " + name);
            select::SelectionReport r;
            {
                Scope s(ctx.spans, "select", "session_select");
                r = session.select(textOf.at(name), name, base);
            }
            ctx.ops.check(r.ic.functions == coldIc.at(name).functions,
                          "session IC differs from cold IC");
        }
    }

    // --- timed refinement rounds ---------------------------------------------
    // A step is one refinement cycle: the four rounds differ in cost by up
    // to 8x, and a median over single rounds would fall into the gap
    // between two of them.
    Samples step, stepRel, refine, pause, warmSelect, tracedStep, untracedStep;
    std::map<std::string, Samples> refineBySpec;
    Samples deltaMs, deltaFlips, deltaUsPerFlip, pages;
    std::size_t stages = 0, hits = 0;
    const double window = cfg.tiny ? 0.5 : cfg.seconds;
    const std::uint64_t windowStart = support::nowNs();
    std::uint64_t round = 0;
    for (std::size_t c = 0; c == 0 || secondsSince(windowStart) < window; ++c) {
        // Traced runs alternate traced and untraced cycles so the tracing
        // overhead is measured against the same process state.
        const bool traceCycle = cfg.trace && c % 2 == 1;
        ctx.spans.setEnabled(traceCycle);
        double cycleMs = 0.0;
        double calibration = 0.0;
        for (const std::string& name : cycle) {
            calibration += calibrationMs();
            ctx.spans.setRound(++round);
            ctx.ops.begin("refine " + name);
            select::SelectionReport report;
            dyncapi::DeltaStats delta;
            const std::uint64_t s0 = support::nowNs();
            std::uint64_t s1 = 0;
            {
                Scope r(ctx.spans, "bench", "refine");
                {
                    Scope s(ctx.spans, "select", "session_select");
                    report = session.select(textOf.at(name), name, base);
                }
                s1 = support::nowNs();
                Scope s(ctx.spans, "dyncapi", "apply_ic_delta");
                delta = dyn->applyIcDelta(report.ic);
            }
            const std::uint64_t s2 = support::nowNs();
            const double stepMs = static_cast<double>(s2 - s0) * 1e-6;
            cycleMs += stepMs;
            refine.add(stepMs);
            refineBySpec[name].add(stepMs);
            pause.add(static_cast<double>(s2 - s1) * 1e-6);
            warmSelect.add(static_cast<double>(s1 - s0) * 1e-6);
            deltaMs.add(static_cast<double>(s2 - s1) * 1e-6);
            const std::size_t flips = flipsOf(delta);
            deltaFlips.add(static_cast<double>(flips));
            if (flips > 0) deltaUsPerFlip.add(static_cast<double>(s2 - s1) * 1e-3 / flips);
            pages.add(static_cast<double>(delta.pagesTouched));
            stages += report.pipelineRun.sizes.size();
            hits += report.pipelineRun.cacheHits;

            // Checks, outside the timed step.
            Scope check(ctx.spans, "bench", "check");
            ctx.ops.check(report.ic.functions == coldIc.at(name).functions,
                          "warm session IC differs from cold IC");
            ctx.ops.check(hiddenSelected(report.ic) == 0, "hidden function selected");
            ctx.ops.check(deltaConsistent(delta), "applyIcDelta: patched + unavailable != requested");
            const std::vector<xray::PackedId> afterDelta = patchedSet(process);
            dyncapi::InitStats full;
            {
                Scope s(ctx.spans, "dyncapi", "apply_ic");
                full = dyn->applyIc(report.ic);
            }
            ctx.ops.check(fullApplyConsistent(full), "applyIc: patched + unavailable != requested");
            ctx.ops.check(afterDelta == patchedSet(process),
                          "delta-patched sleds differ from a full applyIc of the same IC");
        }
        step.add(cycleMs);
        stepRel.add(cycleMs / calibration);
        (traceCycle ? tracedStep : untracedStep).add(cycleMs);
    }
    ctx.spans.setEnabled(cfg.trace);

    // --- metrics -----------------------------------------------------------
    ctx.endToEnd.push_back({"setup_s", ctx.setupSeconds.median(), "s",
                            ctx.setupSeconds.count(), "median of set-ups"});
    addStepMetrics(ctx, step, stepRel);

    ctx.detail.push_back({"select_s", selectS, "s", specs.size(), "cold selection, 4 specs summed"});
    ctx.detail.push_back({"init_s", resolveS + applyS, "s", 1, "DynCapi construction + applyIc(mpi)"});
    addTiming(ctx.detail, "refine_ms", "ms", refine);
    addTiming(ctx.detail, "refine_pause_ms", "ms", pause);
    ctx.detail.push_back({"select.warm_ms", warmSelect.median(), "ms", warmSelect.count(), ""});
    for (const auto& [name, samples] : refineBySpec) {
        ctx.detail.push_back({"refine_to_" + metricName(name) + "_ms_p50", samples.median(), "ms",
                              samples.count(), ""});
    }
    ctx.facts.push_back({"graph_nodes", std::to_string(graph.size())});
    ctx.facts.push_back({"hidden_functions", std::to_string(hidden.size())});
    for (const apps::NamedSpec& spec : specs) {
        ctx.facts.push_back({"ic_size." + metricName(spec.name),
                             std::to_string(coldIc.at(spec.name).size())});
    }

    ctx.perLayer.push_back({"dyncapi.resolve_s", resolveS, "s", 1, ""});
    ctx.perLayer.push_back({"dyncapi.apply_ic_ms", applyS * 1e3, "ms", 1, "applyIc(mpi)"});
    ctx.perLayer.push_back({"dyncapi.delta_ms", deltaMs.median(), "ms", deltaMs.count(), ""});
    ctx.perLayer.push_back({"dyncapi.delta_flips", deltaFlips.median(), "count", deltaFlips.count(), ""});
    ctx.perLayer.push_back({"dyncapi.delta_us_per_flip", deltaUsPerFlip.median(), "us",
                            deltaUsPerFlip.count(), ""});
    ctx.perLayer.push_back({"dyncapi.pages_per_delta", pages.median(), "count", pages.count(), ""});
    ctx.perLayer.push_back({"select.cache_hit_ratio",
                            stages == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(stages),
                            "ratio", stages, "stage hits / stages, refinement rounds"});
    if (cfg.trace) addTraceOverhead(ctx, tracedStep, untracedStep);
}

}  // namespace perfbench
