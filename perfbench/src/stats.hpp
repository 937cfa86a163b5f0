// Order statistics for the benchmark's timings.
//
// The tail of a timing is the highest nearest-rank percentile that still has
// at least ten samples beyond it: the sample at 1-based rank n-10 of n, so
// it is never estimated from fewer than ten observations.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kTailSamplesBeyond = 10;

struct Tail {
    double value = 0.0;
    double percentile = 0.0;  ///< In percent, e.g. 99.0.
    std::size_t beyond = 0;   ///< Samples strictly above the tail's rank.
};

class Samples {
public:
    void add(double value) {
        values_.push_back(value);
        sorted_ = false;
    }
    std::size_t count() const { return values_.size(); }

    /// Median as the mean of the two middle samples on an even count.
    double median() const {
        if (values_.empty()) return 0.0;
        sort();
        const std::size_t n = values_.size();
        return n % 2 == 1 ? values_[n / 2]
                          : 0.5 * (values_[n / 2 - 1] + values_[n / 2]);
    }

    /// Highest percentile with at least kTailSamplesBeyond samples beyond
    /// it: rank n-10 of n. With ten or fewer samples no percentile
    /// qualifies; the minimum is returned with every other sample beyond.
    Tail tail() const {
        Tail t;
        if (values_.empty()) return t;
        sort();
        const std::size_t n = values_.size();
        const std::size_t rank =
            n > kTailSamplesBeyond ? n - kTailSamplesBeyond : 1;
        t.value = values_[rank - 1];
        t.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
        t.beyond = n - rank;
        return t;
    }

private:
    void sort() const {
        if (!sorted_) {
            std::sort(values_.begin(), values_.end());
            sorted_ = true;
        }
    }

    mutable std::vector<double> values_;
    mutable bool sorted_ = true;
};

}  // namespace perfbench
