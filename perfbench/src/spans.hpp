// The benchmark's own span recorder: one span per call the benchmark makes
// into a layer's public functions, kept in memory and written out when the
// run ends. It never touches the program's obs::TraceRecorder, so a traced
// run executes the same program code as an untraced one.
//
// A span's parent is the innermost open span on the same thread; a span
// opened on another thread (a simulated MPI rank) names its parent
// explicitly. Only one rank is traced, so sibling spans never overlap and a
// layer's self time is its span durations minus those of its children.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "support/timer.hpp"

namespace perfbench {

struct Span {
    std::string layer;  ///< Module of src/ the call goes into, or "bench".
    std::string op;     ///< Public function or step called.
    std::uint64_t round = 0;  ///< Epoch / refinement round the span serves.
    int parent = -1;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    std::uint64_t durationNs() const { return endNs - startNs; }
};

class SpanRecorder {
public:
    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }
    void setRound(std::uint64_t round) { round_ = round; }

    /// Opens a span; `parent` < 0 means "innermost open span on this
    /// thread". Returns -1 when disabled.
    int begin(const std::string& layer, const std::string& op, int parent = -1) {
        if (!enabled_) return -1;
        std::vector<int>& stack = openStack();
        Span span;
        span.layer = layer;
        span.op = op;
        span.round = round_;
        span.parent = parent >= 0 ? parent : (stack.empty() ? -1 : stack.back());
        std::lock_guard<std::mutex> lock(mutex_);
        span.startNs = capi::support::nowNs();
        spans_.push_back(std::move(span));
        const int id = static_cast<int>(spans_.size()) - 1;
        stack.push_back(id);
        return id;
    }

    void end(int id) {
        if (id < 0) return;
        const std::uint64_t now = capi::support::nowNs();
        std::vector<int>& stack = openStack();
        if (!stack.empty() && stack.back() == id) stack.pop_back();
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[static_cast<std::size_t>(id)].endNs = now;
    }

    const std::vector<Span>& spans() const { return spans_; }

    /// Summed durations of the root spans: the traced end-to-end time.
    std::uint64_t rootNs() const {
        std::uint64_t total = 0;
        for (const Span& s : spans_) {
            if (s.parent < 0) total += s.durationNs();
        }
        return total;
    }

    /// Self time per layer: each span's duration minus its children's.
    std::map<std::string, std::uint64_t> selfNsByLayer() const {
        std::vector<std::uint64_t> childNs(spans_.size(), 0);
        for (const Span& s : spans_) {
            if (s.parent >= 0) childNs[static_cast<std::size_t>(s.parent)] += s.durationNs();
        }
        std::map<std::string, std::uint64_t> self;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const std::uint64_t d = spans_[i].durationNs();
            self[spans_[i].layer] += d > childNs[i] ? d - childNs[i] : 0;
        }
        return self;
    }

    /// Durations in ns of every span with this layer and op.
    std::vector<double> durations(const std::string& layer, const std::string& op) const {
        std::vector<double> out;
        for (const Span& s : spans_) {
            if (s.layer == layer && s.op == op) out.push_back(static_cast<double>(s.durationNs()));
        }
        return out;
    }

    /// Writes every span as JSON lines: {layer, op, round, parent, start_ns, end_ns}.
    bool writeJsonLines(const std::string& path) const {
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (f == nullptr) return false;
        const std::uint64_t base = spans_.empty() ? 0 : spans_.front().startNs;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            std::fprintf(f,
                         "{\"id\":%zu,\"layer\":\"%s\",\"op\":\"%s\",\"round\":%llu,"
                         "\"parent\":%d,\"start_ns\":%llu,\"end_ns\":%llu}\n",
                         i, s.layer.c_str(), s.op.c_str(),
                         static_cast<unsigned long long>(s.round), s.parent,
                         static_cast<unsigned long long>(s.startNs - base),
                         static_cast<unsigned long long>(s.endNs - base));
        }
        return std::fclose(f) == 0;
    }

private:
    static std::vector<int>& openStack() {
        thread_local std::vector<int> stack;
        return stack;
    }

    bool enabled_ = false;
    std::uint64_t round_ = 0;
    std::mutex mutex_;
    std::vector<Span> spans_;
};

/// RAII span; a no-op when the recorder is disabled.
class Scope {
public:
    Scope(SpanRecorder& recorder, const std::string& layer, const std::string& op,
          int parent = -1)
        : recorder_(recorder), id_(recorder.begin(layer, op, parent)) {}
    ~Scope() { recorder_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }

private:
    SpanRecorder& recorder_;
    int id_;
};

}  // namespace perfbench
