// perfbench: the repository benchmark. One run executes one workload for a
// fixed window and prints, as its last stdout line, one JSON object with the
// contract's keys (correct, attempted, failed, metrics). Untraced runs report
// the end-to-end metrics; traced runs (--trace 1) report the per-layer ones
// from the benchmark's own spans around its calls into each layer.
//
//   perfbench --workload openfoam-static|lulesh-adapt|fleet-stream
//             --seed N --seconds S --trace 0|1 [--result FILE] [--tiny]
//   perfbench --self-test
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "common.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Declared {
    const char* name;
    const char* unit;
    /// Times must be measured by every workload; counts and ratios of a
    /// layer a workload does not run read 0.
    bool everyWorkload;
};

/// The per-layer metrics of BENCHMARK.json, in its order.
constexpr Declared kPerLayer[] = {
    {"apps.model_s", "s", true},
    {"cg.build_s", "s", true},
    {"binsim.compile_s", "s", true},
    {"binsim.load_s", "s", true},
    {"dyncapi.resolve_s", "s", true},
    {"dyncapi.apply_ic_ms", "ms", true},
    {"dyncapi.delta_ms", "ms", true},
    {"dyncapi.delta_us_per_flip", "us", true},
    {"dyncapi.delta_flips", "count", true},
    {"dyncapi.pages_per_delta", "count", true},
    {"obs.trace_overhead_pct", "%", true},
    {"select.cache_hit_ratio", "ratio", false},
    {"binsim.dynamic_calls", "count", false},
    {"scorepsim.probe_events", "count", false},
    {"scorepsim.suppressed_events", "count", false},
    {"adapt.ic_size", "count", false},
    {"adapt.in_budget_ratio", "ratio", false},
    {"fleet.bytes_in_per_frame", "B", false},
    {"fleet.bytes_out_per_frame", "B", false},
    {"fleet.resyncs", "count", false},
    {"fleet.decode_errors", "count", false},
};

/// The end-to-end metrics of BENCHMARK.json, in its order.
constexpr const char* kEndToEnd[] = {"setup_s", "peak_rss_mb", "step_rel_p50"};

std::string jsonEscape(const std::string& s) {
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) continue;
        out += c;
    }
    return out;
}

std::string number(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string firstLineWith(const char* path, const char* key) {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(key, 0) == 0) {
            const std::size_t colon = line.find(':');
            std::string v = colon == std::string::npos ? line : line.substr(colon + 1);
            const std::size_t b = v.find_first_not_of(" \t");
            return b == std::string::npos ? "" : v.substr(b);
        }
    }
    return "unknown";
}

std::vector<std::pair<std::string, std::string>> machineFingerprint() {
    return {
        {"cpu_model", firstLineWith("/proc/cpuinfo", "model name")},
        {"nproc", std::to_string(std::thread::hardware_concurrency())},
#if defined(__clang__)
        {"compiler", "clang " __clang_version__},
#elif defined(__GNUC__)
        {"compiler", "gcc " __VERSION__},
#else
        {"compiler", __VERSION__},
#endif
        {"build_type", PERFBENCH_BUILD_TYPE},
        {"kernel", firstLineWith("/proc/sys/kernel/osrelease", "")},
    };
}

const Metric* find(const MetricList& list, const std::string& name) {
    for (const Metric& m : list) {
        if (m.name == name) return &m;
    }
    return nullptr;
}

/// Set-up layer metrics and per-layer self times, from the spans.
void addSpanMetrics(Context& ctx) {
    ctx.perLayer.push_back({"apps.model_s", spanMedian(ctx, "apps", "make_model", 1e-9), "s",
                            ctx.spans.durations("apps", "make_model").size(), ""});
    ctx.perLayer.push_back({"cg.build_s", spanMedian(ctx, "cg", "build", 1e-9), "s",
                            ctx.spans.durations("cg", "build").size(), ""});
    ctx.perLayer.push_back({"binsim.compile_s", spanMedian(ctx, "binsim", "compile", 1e-9), "s",
                            ctx.spans.durations("binsim", "compile").size(), "XRay build"});
    ctx.perLayer.push_back({"binsim.load_s", spanMedian(ctx, "binsim", "load", 1e-9), "s",
                            ctx.spans.durations("binsim", "load").size(), "XRay build"});
    const std::uint64_t rootNs = ctx.spans.rootNs();
    std::uint64_t selfSum = 0;
    for (const auto& [layer, ns] : ctx.spans.selfNsByLayer()) {
        selfSum += ns;
        ctx.detail.push_back({"self." + layer + "_ms", static_cast<double>(ns) * 1e-6, "ms", 1,
                              "layer self time over the traced spans"});
    }
    ctx.detail.push_back({"traced_total_ms", static_cast<double>(rootNs) * 1e-6, "ms", 1,
                          "summed root spans"});
    ctx.detail.push_back({"self_sum_ms", static_cast<double>(selfSum) * 1e-6, "ms", 1,
                          "must equal traced_total_ms"});
}

void printMetrics(const char* title, const MetricList& list) {
    std::printf("%s\n", title);
    for (const Metric& m : list) {
        std::printf("  %-30s %14.6g %-6s n=%-6zu %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                    m.samples, m.note.c_str());
    }
}

void writeMetrics(std::ostream& out, const MetricList& list) {
    out << "{";
    for (std::size_t i = 0; i < list.size(); ++i) {
        const Metric& m = list[i];
        out << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << number(m.value)
            << ", \"unit\": \"" << m.unit << "\", \"samples\": " << m.samples
            << ", \"note\": \"" << jsonEscape(m.note) << "\"}";
    }
    out << "}";
}

bool writeResultFile(const std::string& path, const Context& ctx, const MetricList& contract) {
    std::ofstream out(path);
    if (!out) return false;
    const RunConfig& cfg = ctx.config;
    out << "{\n  \"workload\": \"" << cfg.workload << "\",\n  \"seed\": " << cfg.seed
        << ",\n  \"seconds\": " << number(cfg.seconds) << ",\n  \"trace\": " << (cfg.trace ? 1 : 0)
        << ",\n  \"machine\": {";
    const auto machine = machineFingerprint();
    for (std::size_t i = 0; i < machine.size(); ++i) {
        out << (i ? ", " : "") << "\"" << machine[i].first << "\": \""
            << jsonEscape(machine[i].second) << "\"";
    }
    out << "},\n  \"facts\": {";
    for (std::size_t i = 0; i < ctx.facts.size(); ++i) {
        out << (i ? ", " : "") << "\"" << ctx.facts[i].first << "\": \""
            << jsonEscape(ctx.facts[i].second) << "\"";
    }
    out << "},\n  \"attempted\": " << ctx.ops.attempted() << ",\n  \"failed\": "
        << ctx.ops.failed() << ",\n  \"failure_ratio\": " << number(ctx.ops.failureRatio())
        << ",\n  \"failures\": [";
    for (std::size_t i = 0; i < ctx.ops.failures().size(); ++i) {
        out << (i ? ", " : "") << "\"" << jsonEscape(ctx.ops.failures()[i]) << "\"";
    }
    out << "],\n  \"metrics\": ";
    writeMetrics(out, contract);
    out << ",\n  \"detail\": ";
    writeMetrics(out, ctx.detail);
    out << "\n}\n";
    return static_cast<bool>(out);
}

int selfTest() {
    int failures = 0;
    auto expect = [&](bool ok, const char* what) {
        if (!ok) {
            ++failures;
            std::printf("self-test FAILED: %s\n", what);
        }
    };
    // Tail rule: rank n-10 of n, so exactly ten samples lie beyond it.
    Samples s;
    for (int i = 1; i <= 1000; ++i) s.add(i);
    Tail t = s.tail();
    expect(t.value == 990.0 && t.beyond == 10 && t.percentile == 99.0, "tail of 1..1000 is p99 = 990");
    Samples small;
    for (int i = 1; i <= 16; ++i) small.add(17 - i);
    t = small.tail();
    expect(t.value == 6.0 && t.beyond == 10 && t.percentile == 37.5, "tail of 16 samples is p37.5");
    Samples tiny;
    for (int i = 1; i <= 5; ++i) tiny.add(i);
    t = tiny.tail();
    expect(t.value == 1.0 && t.beyond == 4, "with <= 10 samples the tail is the minimum");
    expect(s.median() == 500.5 && small.median() == 8.5, "median averages the middle pair");

    // failure_ratio: an operation with two failed checks fails once.
    Operations ops;
    ops.begin("a");
    ops.check(true, "fine");
    ops.begin("b");
    ops.check(false, "first");
    ops.check(false, "second");
    ops.begin("c");
    expect(ops.attempted() == 3 && ops.failed() == 1, "failed operations, not failed checks");
    expect(std::fabs(ops.failureRatio() - 1.0 / 3.0) < 1e-12, "failure_ratio = failed / attempted");
    expect(ops.failures().size() == 2 && ops.failures()[0] == "b: first", "failed checks kept");
    Operations none;
    expect(none.failureRatio() == 0.0, "no operations, no failures");

    // Self times add up to the traced total.
    SpanRecorder rec;
    rec.setEnabled(true);
    {
        Scope root(rec, "bench", "step");
        { Scope a(rec, "select", "x"); }
        { Scope b(rec, "dyncapi", "y"); { Scope c(rec, "xraysim", "z"); } }
    }
    std::uint64_t sum = 0;
    for (const auto& [layer, ns] : rec.selfNsByLayer()) sum += ns;
    expect(sum == rec.rootNs() && rec.selfNsByLayer().size() == 4, "self times sum to root time");

    std::printf("self-test: %s\n", failures == 0 ? "all checks passed" : "FAILED");
    return failures == 0 ? 0 : 1;
}

int usage() {
    std::fprintf(stderr,
                 "usage: perfbench --workload openfoam-static|lulesh-adapt|fleet-stream "
                 "--seed N --seconds S --trace 0|1 [--result FILE] [--tiny]\n"
                 "       perfbench --self-test\n");
    return 2;
}

int run(int argc, char** argv) {
    Context ctx;
    RunConfig& cfg = ctx.config;
    std::string resultPath;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--self-test") return selfTest();
        if (arg == "--tiny") {
            cfg.tiny = true;
            continue;
        }
        if (i + 1 >= argc) return usage();
        const std::string value = argv[++i];
        if (arg == "--workload") cfg.workload = value;
        else if (arg == "--seed") cfg.seed = std::stoull(value);
        else if (arg == "--seconds") cfg.seconds = std::stod(value);
        else if (arg == "--trace") cfg.trace = value == "1";
        else if (arg == "--result") resultPath = value;
        else return usage();
    }
    void (*workload)(Context&) = nullptr;
    if (cfg.workload == "openfoam-static") workload = runOpenFoamStatic;
    else if (cfg.workload == "lulesh-adapt") workload = runLuleshAdapt;
    else if (cfg.workload == "fleet-stream") workload = runFleetStream;
    if (workload == nullptr || !(cfg.seconds > 0.0)) return usage();

    calibrationMs();  // builds the ring outside every timed step
    ctx.spans.setEnabled(cfg.trace);
    workload(ctx);
    ctx.spans.setEnabled(false);
    ctx.endToEnd.push_back({"peak_rss_mb", peakRssMb(), "MB", 1, "VmHWM"});
    if (cfg.trace) addSpanMetrics(ctx);

    // Contract metrics, in BENCHMARK.json order.
    MetricList contract;
    if (cfg.trace) {
        for (const Declared& d : kPerLayer) {
            const Metric* m = find(ctx.perLayer, d.name);
            if (m == nullptr && d.everyWorkload) {
                std::fprintf(stderr, "perfbench: %s did not measure %s\n", cfg.workload.c_str(),
                             d.name);
                return 3;
            }
            contract.push_back(m != nullptr ? *m
                                            : Metric{d.name, 0.0, d.unit, 0,
                                                     "layer not run by this workload"});
        }
    } else {
        for (const char* name : kEndToEnd) {
            const Metric* m = find(ctx.endToEnd, name);
            if (m == nullptr) {
                std::fprintf(stderr, "perfbench: %s did not measure %s\n", cfg.workload.c_str(), name);
                return 3;
            }
            contract.push_back(*m);
        }
    }
    for (const Metric& m : contract) {
        if (!std::isfinite(m.value)) {
            std::fprintf(stderr, "perfbench: %s is not finite\n", m.name.c_str());
            return 3;
        }
    }

    std::printf("workload %s, seed %llu, %.0f s window%s%s\n", cfg.workload.c_str(),
                static_cast<unsigned long long>(cfg.seed), cfg.seconds,
                cfg.trace ? ", traced" : "", cfg.tiny ? ", tiny" : "");
    printMetrics(cfg.trace ? "per-layer metrics:" : "end-to-end metrics:", contract);
    printMetrics("workload metrics:", ctx.detail);
    for (const auto& [key, value] : ctx.facts) std::printf("  %s = %s\n", key.c_str(), value.c_str());
    std::printf("operations: %llu attempted, %llu failed, failure_ratio %.6g\n",
                static_cast<unsigned long long>(ctx.ops.attempted()),
                static_cast<unsigned long long>(ctx.ops.failed()), ctx.ops.failureRatio());
    for (const std::string& f : ctx.ops.failures()) std::printf("  FAILED %s\n", f.c_str());

    if (!resultPath.empty()) {
        if (!writeResultFile(resultPath, ctx, contract)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n", resultPath.c_str());
            return 3;
        }
        if (cfg.trace) {
            const std::string spanPath = resultPath + ".spans.jsonl";
            if (!ctx.spans.writeJsonLines(spanPath)) {
                std::fprintf(stderr, "perfbench: cannot write %s\n", spanPath.c_str());
                return 3;
            }
        }
    }

    std::ostringstream line;
    line << "{\"correct\": " << (ctx.ops.failed() == 0 ? "true" : "false")
         << ", \"attempted\": " << ctx.ops.attempted() << ", \"failed\": " << ctx.ops.failed()
         << ", \"metrics\": {";
    for (std::size_t i = 0; i < contract.size(); ++i) {
        line << (i ? ", " : "") << "\"" << contract[i].name << "\": {\"value\": "
             << number(contract[i].value) << ", \"unit\": \"" << contract[i].unit << "\"}";
    }
    line << "}}";
    std::printf("%s\n", line.str().c_str());
    return ctx.ops.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    try {
        return perfbench::run(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 3;
    }
}
