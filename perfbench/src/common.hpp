// Shared pieces of the three workloads: run settings, the operation and
// check ledger behind `failure_ratio`, the metric lists, and the timed
// set-up every workload starts with.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "binsim/app_model.hpp"
#include "binsim/process.hpp"
#include "cg/call_graph.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "support/timer.hpp"

namespace perfbench {

struct RunConfig {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Smoke size: small inputs and a short window, so a broken workload
    /// fails in seconds. Never used for measurements.
    bool tiny = false;
};

/// Attempted and failed operations. An operation fails when any of its
/// checks fails; every failed check is kept with the operation's name.
class Operations {
public:
    void begin(std::string name) {
        ++attempted_;
        current_ = std::move(name);
        currentFailed_ = false;
    }
    bool check(bool ok, const std::string& what) {
        if (!ok) {
            if (!currentFailed_) ++failed_;
            currentFailed_ = true;
            failures_.push_back(current_ + ": " + what);
        }
        return ok;
    }
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    double failureRatio() const {
        return attempted_ == 0 ? 0.0
                               : static_cast<double>(failed_) / static_cast<double>(attempted_);
    }
    const std::vector<std::string>& failures() const { return failures_; }

private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::string current_;
    bool currentFailed_ = false;
    std::vector<std::string> failures_;
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 1;
    std::string note;  ///< e.g. the tail's percentile.
};

using MetricList = std::vector<Metric>;

inline void addTiming(MetricList& out, const std::string& base, const std::string& unit,
                      const Samples& s, double scale = 1.0) {
    out.push_back({base + "_p50", s.median() * scale, unit, s.count(), ""});
    const Tail t = s.tail();
    char note[96];
    std::snprintf(note, sizeof note, "p%.1f, %zu samples beyond", t.percentile, t.beyond);
    out.push_back({base + "_tail", t.value * scale, unit, s.count(), note});
}

struct Context {
    RunConfig config;
    SpanRecorder spans;
    Operations ops;
    /// Contract metrics: printed in the result line when untraced.
    MetricList endToEnd;
    /// Contract metrics: printed in the result line when traced.
    MetricList perLayer;
    /// Workload-specific metrics under their own names (result file and
    /// report only; a workload that does not run a layer omits them).
    MetricList detail;
    /// Facts about the run that are not measurements (fingerprints).
    std::vector<std::pair<std::string, std::string>> facts;
    Samples setupSeconds;
};

/// Whole-program graph, compiled images and loaded processes of one model.
struct Prepared {
    capi::cg::CallGraph graph;
    std::unique_ptr<capi::binsim::Process> process;  ///< XRay build.
    std::unique_ptr<capi::binsim::Process> vanilla;  ///< No XRay; optional.
};

/// Set-up runs at least kSetupRepeats times and, while less than
/// kSetupSeconds of it has been measured, up to kMaxSetupRepeats times;
/// setup_s is the median.
inline constexpr int kSetupRepeats = 3;
inline constexpr int kMaxSetupRepeats = 31;
inline constexpr double kSetupSeconds = 1.0;

/// Builds the model, its MetaCG graph, the XRay build (and optionally a
/// vanilla build) and loads them, each call wrapped in its layer's span.
Prepared prepare(Context& ctx, const std::function<capi::binsim::AppModel()>& makeModel,
                 bool withVanilla);

/// Median of a span set in the given unit (1e-9 for s, 1e-6 for ms, 1e-3 for us).
inline double spanMedian(const Context& ctx, const std::string& layer, const std::string& op,
                         double scale) {
    Samples s;
    for (double ns : ctx.spans.durations(layer, op)) s.add(ns);
    return s.median() * scale;
}

/// Wall-clock seconds since `startNs`.
double secondsSince(std::uint64_t startNs);

/// Peak resident set of this process in MB (VmHWM).
double peakRssMb();

/// Wall-clock ms of fixed single-threaded reference work: a dependent
/// floating-point chain, like binsim's kernel spin, then a dependent walk
/// through a 16 MB ring that misses the private caches. Each step is divided
/// by the calibration timed just before it, so the gated step metric follows
/// the program rather than the host's current speed: the 4-vCPU host this
/// was tuned on drifts by 30% and more within seconds, in both its CPU and
/// its shared-cache share. The first call builds the ring.
double calibrationMs();

/// Adds the median of step ÷ calibration to the end-to-end metrics, and its
/// tail and the raw step timings to the workload metrics: on the noisy host
/// the tails spread 20-40% across runs, too much to gate on.
void addStepMetrics(Context& ctx, const Samples& stepMs, const Samples& stepRel);

/// Adds obs.trace_overhead_pct from the traced and untraced samples of one
/// step kind, measured in the same traced run.
void addTraceOverhead(Context& ctx, const Samples& traced, const Samples& untraced);

/// Repeats a set-up as above, recording each duration in ctx.setupSeconds,
/// and returns the last result. The previous result is destroyed before the
/// next set-up starts, so only one is ever in memory.
template <class Make>
auto repeatSetup(Context& ctx, Make make) -> decltype(make()) {
    decltype(make()) last;
    double total = 0.0;
    for (int rep = 0;
         rep < kSetupRepeats || (total < kSetupSeconds && rep < kMaxSetupRepeats); ++rep) {
        last.reset();
        const std::uint64_t t0 = capi::support::nowNs();
        last = make();
        const double seconds = secondsSince(t0);
        ctx.setupSeconds.add(seconds);
        total += seconds;
    }
    return last;
}

void runOpenFoamStatic(Context& ctx);
void runLuleshAdapt(Context& ctx);
void runFleetStream(Context& ctx);

}  // namespace perfbench
