#include "common.hpp"

#include <fstream>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "binsim/compiler.hpp"
#include "cg/metacg_builder.hpp"
#include "support/timer.hpp"

namespace perfbench {

using namespace capi;

Prepared prepare(Context& ctx, const std::function<binsim::AppModel()>& makeModel,
                 bool withVanilla) {
    SpanRecorder& spans = ctx.spans;
    Scope setup(spans, "bench", "setup");
    Prepared app;
    binsim::AppModel model;
    {
        Scope s(spans, "apps", "make_model");
        model = makeModel();
    }
    {
        Scope s(spans, "cg", "build");
        cg::MetaCgBuilder builder;
        app.graph = builder.build(model.toSourceModel());
    }
    binsim::CompileOptions options;
    options.xrayThreshold.instructionThreshold = 1;
    binsim::CompiledProgram compiled;
    {
        Scope s(spans, "binsim", "compile");
        compiled = binsim::compile(model, options);
    }
    {
        Scope s(spans, "binsim", "load");
        app.process = std::make_unique<binsim::Process>(std::move(compiled));
    }
    if (withVanilla) {
        options.xrayInstrument = false;
        binsim::CompiledProgram plain;
        {
            Scope s(spans, "binsim", "compile_vanilla");
            plain = binsim::compile(model, options);
        }
        Scope s(spans, "binsim", "load_vanilla");
        app.vanilla = std::make_unique<binsim::Process>(std::move(plain));
    }
    return app;
}

double secondsSince(std::uint64_t startNs) {
    return static_cast<double>(support::nowNs() - startNs) * 1e-9;
}

double peakRssMb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
        }
    }
    return 0.0;
}

namespace {

/// A random cyclic permutation of 4M indices (16 MB, 8x a core's L2), so
/// a walk along it misses the private caches on almost every step.
const std::vector<std::uint32_t>& calibrationRing() {
    static const std::vector<std::uint32_t> ring = [] {
        std::vector<std::uint32_t> next(std::size_t{1} << 22);
        std::iota(next.begin(), next.end(), 0u);
        std::mt19937 rng(20230320);
        for (std::size_t i = next.size() - 1; i > 0; --i) {  // Sattolo: one cycle
            std::swap(next[i], next[std::uniform_int_distribution<std::size_t>(0, i - 1)(rng)]);
        }
        return next;
    }();
    return ring;
}

}  // namespace

double calibrationMs() {
    constexpr std::uint32_t kSpinIterations = 200'000;
    constexpr std::uint32_t kWalkSteps = 5'000;
    const std::vector<std::uint32_t>& ring = calibrationRing();
    const std::uint64_t t0 = support::nowNs();
    volatile double sink = 1.0;
    double acc = sink;
    for (std::uint32_t i = 0; i < kSpinIterations; ++i) acc = acc * 1.0000000371 + 1e-9;
    sink = acc;
    volatile std::uint32_t at = 0;
    std::uint32_t cursor = at;
    for (std::uint32_t i = 0; i < kWalkSteps; ++i) cursor = ring[cursor];
    at = cursor;
    return static_cast<double>(support::nowNs() - t0) * 1e-6;
}

void addStepMetrics(Context& ctx, const Samples& stepMs, const Samples& stepRel) {
    ctx.endToEnd.push_back({"step_rel_p50", stepRel.median(), "x", stepRel.count(),
                            "step / calibration loop timed before it"});
    MetricList tail;
    addTiming(tail, "step_rel", "x", stepRel);
    ctx.detail.push_back(tail.back());
    addTiming(ctx.detail, "step_ms", "ms", stepMs);
}

void addTraceOverhead(Context& ctx, const Samples& traced, const Samples& untraced) {
    const double base = untraced.median();
    const double pct = base > 0.0 ? 100.0 * (traced.median() - base) / base : 0.0;
    ctx.perLayer.push_back({"obs.trace_overhead_pct", pct, "%",
                            traced.count() + untraced.count(),
                            "median traced step vs median untraced step"});
}

}  // namespace perfbench
