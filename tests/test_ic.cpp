// Tests for the instrumentation-configuration container and file formats,
// the IC a selection run builds, and the tiered policy's fingerprint.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "cg/call_graph.hpp"
#include "select/ic.hpp"
#include "select/selection_driver.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace {

using capi::select::InstrumentationConfig;
using capi::support::Error;

InstrumentationConfig sampleIc() {
    InstrumentationConfig ic;
    ic.specName = "kernels";
    ic.application = "lulesh";
    ic.addFunction("CalcHourglassControlForElems");
    ic.addFunction("Amul");
    ic.addFunction("Foam::fvMatrix::solve");
    return ic;
}

TEST(Ic, FunctionsStaySortedAndUnique) {
    InstrumentationConfig ic = sampleIc();
    ic.addFunction("Amul");
    EXPECT_EQ(ic.size(), 3u);
    EXPECT_EQ(ic.functions.front(), "Amul");
    EXPECT_TRUE(ic.contains("Amul"));
    EXPECT_FALSE(ic.contains("amul"));

    InstrumentationConfig bulk;
    bulk.assignFunctions({"zeta", "Amul", "beta", "Amul", "alpha"});
    EXPECT_EQ(bulk.functions,
              (std::vector<std::string>{"Amul", "alpha", "beta", "zeta"}));
}

TEST(Ic, ScorePFilterRoundTrip) {
    InstrumentationConfig ic = sampleIc();
    std::string filter = ic.toScorePFilter();
    EXPECT_NE(filter.find("SCOREP_REGION_NAMES_BEGIN"), std::string::npos);
    EXPECT_NE(filter.find("EXCLUDE *"), std::string::npos);
    EXPECT_NE(filter.find("INCLUDE MANGLED Amul"), std::string::npos);

    InstrumentationConfig round = InstrumentationConfig::fromScorePFilter(filter);
    EXPECT_EQ(round.functions, ic.functions);
}

TEST(Ic, ScorePFilterAcceptsUnmangledIncludes) {
    InstrumentationConfig ic = InstrumentationConfig::fromScorePFilter(
        "SCOREP_REGION_NAMES_BEGIN\n"
        "  EXCLUDE *\n"
        "  INCLUDE foo\n"
        "  INCLUDE MANGLED bar\n"
        "SCOREP_REGION_NAMES_END\n");
    EXPECT_EQ(ic.functions, (std::vector<std::string>{"bar", "foo"}));
}

TEST(Ic, ScorePFilterRejectsGarbage) {
    EXPECT_THROW(InstrumentationConfig::fromScorePFilter("INCLUDE foo\n"), Error);
    EXPECT_THROW(InstrumentationConfig::fromScorePFilter(
                     "SCOREP_REGION_NAMES_BEGIN\nFROBNICATE x\nSCOREP_REGION_NAMES_END\n"),
                 Error);
    EXPECT_THROW(InstrumentationConfig::fromScorePFilter(""), Error);
}

TEST(Ic, JsonRoundTripWithStaticIds) {
    InstrumentationConfig ic = sampleIc();
    ic.staticIds["Amul"] = 0x01000005u;  // object 1, function 5
    InstrumentationConfig round = InstrumentationConfig::fromJson(ic.toJson());
    EXPECT_EQ(round.functions, ic.functions);
    EXPECT_EQ(round.specName, "kernels");
    EXPECT_EQ(round.application, "lulesh");
    ASSERT_EQ(round.staticIds.size(), 1u);
    EXPECT_EQ(round.staticIds.at("Amul"), 0x01000005u);
}

TEST(Ic, JsonRejectsUnknownFormat) {
    capi::support::Json doc = capi::support::Json::object();
    doc["format"] = capi::support::Json("other/9");
    EXPECT_THROW(InstrumentationConfig::fromJson(doc), Error);
}

TEST(Ic, FileRoundTripDetectsFormat) {
    InstrumentationConfig ic = sampleIc();
    std::string jsonPath = ::testing::TempDir() + "/capi_ic_test.json";
    std::string filterPath = ::testing::TempDir() + "/capi_ic_test.filter";

    ic.writeFile(jsonPath, /*scorePFormat=*/false);
    ic.writeFile(filterPath, /*scorePFormat=*/true);

    InstrumentationConfig fromJsonFile = InstrumentationConfig::readFile(jsonPath);
    InstrumentationConfig fromFilterFile = InstrumentationConfig::readFile(filterPath);
    EXPECT_EQ(fromJsonFile.functions, ic.functions);
    EXPECT_EQ(fromFilterFile.functions, ic.functions);

    std::remove(jsonPath.c_str());
    std::remove(filterPath.c_str());
}

TEST(Ic, SelectionBuildsSortedUniqueNameList) {
    // Ids are assigned in insertion order, which is deliberately not name
    // order, so the IC must come out sorted regardless of id order.
    capi::cg::CallGraph graph;
    const std::vector<std::string> names = {"zeta", "alpha", "mu", "beta",
                                            "omega", "MPI_Send", "kappa"};
    std::vector<std::string> expected;
    for (const std::string& name : names) {
        capi::cg::FunctionDesc desc;
        desc.name = name;
        desc.prettyName = name;
        desc.flags.hasBody = name != "MPI_Send";  // a declaration-only node
        graph.addFunction(desc);
        if (desc.flags.hasBody) {
            expected.push_back(name);
        }
    }
    std::sort(expected.begin(), expected.end());

    capi::select::SelectionOptions options;
    options.specText = "join(%%)";
    options.specName = "all";
    const capi::select::SelectionReport report =
        capi::select::runSelection(graph, options);
    EXPECT_EQ(report.ic.functions, expected);
    EXPECT_EQ(report.ic.specName, "all");
    EXPECT_EQ(report.selectedFinal, expected.size());
    for (const std::string& name : expected) {
        EXPECT_TRUE(report.ic.contains(name)) << name;
    }
}

TEST(Ic, ReadMissingFileThrows) {
    EXPECT_THROW(InstrumentationConfig::readFile("/nonexistent/path/x.json"), Error);
}

// --- tiered policy ----------------------------------------------------------

using capi::select::InstrumentationPolicy;
using capi::select::PolicyDelta;
using capi::select::RegionPolicy;
using capi::select::SamplingSpec;
using capi::select::Tier;

InstrumentationPolicy samplePolicy() {
    InstrumentationPolicy policy;
    policy.specName = "kernels";
    policy.application = "lulesh";
    policy.setRegion("Amul", {Tier::Full, {}});
    policy.setRegion("CalcHourglassControlForElems", {Tier::Sampled, {64, 500}});
    policy.setRegion("Foam::fvMatrix::solve", {Tier::Full, {}});
    return policy;
}

TEST(Policy, TierLookupAndCounts) {
    InstrumentationPolicy policy = samplePolicy();
    EXPECT_EQ(policy.size(), 3u);
    EXPECT_EQ(policy.tierOf("Amul"), Tier::Full);
    EXPECT_EQ(policy.tierOf("CalcHourglassControlForElems"), Tier::Sampled);
    EXPECT_EQ(policy.tierOf("unknown"), Tier::Off);
    EXPECT_EQ(policy.countOf(Tier::Full), 2u);
    EXPECT_EQ(policy.countOf(Tier::Sampled), 1u);
    const RegionPolicy* sampled = policy.policyOf("CalcHourglassControlForElems");
    ASSERT_NE(sampled, nullptr);
    EXPECT_EQ(sampled->sampling.everyN, 64u);
    EXPECT_EQ(sampled->sampling.minIntervalNs, 500u);
}

TEST(Policy, SetRegionOffRemovesAndFullClearsSpec) {
    InstrumentationPolicy policy = samplePolicy();
    policy.setRegion("Amul", {Tier::Off, {}});
    EXPECT_EQ(policy.size(), 2u);
    EXPECT_FALSE(policy.contains("Amul"));

    policy.setRegion("CalcHourglassControlForElems", {Tier::Full, {8, 9}});
    const RegionPolicy* region = policy.policyOf("CalcHourglassControlForElems");
    ASSERT_NE(region, nullptr);
    EXPECT_EQ(region->tier, Tier::Full);
    EXPECT_TRUE(region->sampling.unsampled());
}

TEST(Policy, FullOfIsTheBinaryDegenerateCase) {
    InstrumentationConfig ic = sampleIc();
    ic.staticIds["Amul"] = 0x01000005u;
    InstrumentationPolicy policy = InstrumentationPolicy::fullOf(ic);
    EXPECT_EQ(policy.size(), ic.size());
    for (const std::string& name : ic.functions) {
        EXPECT_EQ(policy.tierOf(name), Tier::Full);
    }
    // Projecting back yields the identical binary IC.
    InstrumentationConfig round = policy.patchSet();
    EXPECT_EQ(round.functions, ic.functions);
    EXPECT_EQ(round.staticIds, ic.staticIds);
}

TEST(Policy, JsonRoundTripPreservesTiersAndSpecs) {
    InstrumentationPolicy policy = samplePolicy();
    policy.staticIds["Amul"] = 0x01000005u;
    InstrumentationPolicy round = InstrumentationPolicy::fromJson(policy.toJson());
    EXPECT_EQ(round.functions, policy.functions);
    EXPECT_EQ(round.regions, policy.regions);
    EXPECT_EQ(round.specName, "kernels");
    EXPECT_EQ(round.staticIds.at("Amul"), 0x01000005u);
    EXPECT_EQ(round.fingerprint(), policy.fingerprint());
}

TEST(Policy, DiffClassifiesEveryTransition) {
    InstrumentationPolicy from;
    from.setRegion("a", {Tier::Full, {}});         // stays
    from.setRegion("b", {Tier::Full, {}});         // demoted
    from.setRegion("c", {Tier::Sampled, {64, 0}}); // promoted
    from.setRegion("d", {Tier::Sampled, {64, 0}}); // regated
    from.setRegion("e", {Tier::Full, {}});         // removed

    InstrumentationPolicy to;
    to.setRegion("a", {Tier::Full, {}});
    to.setRegion("b", {Tier::Sampled, {8, 0}});
    to.setRegion("c", {Tier::Full, {}});
    to.setRegion("d", {Tier::Sampled, {8, 0}});
    to.setRegion("f", {Tier::Sampled, {64, 0}});   // added

    PolicyDelta delta = capi::select::policyDiff(from, to);
    EXPECT_EQ(delta.added, std::vector<std::string>{"f"});
    EXPECT_EQ(delta.removed, std::vector<std::string>{"e"});
    EXPECT_EQ(delta.promoted, std::vector<std::string>{"c"});
    EXPECT_EQ(delta.demoted, std::vector<std::string>{"b"});
    EXPECT_EQ(delta.regated, std::vector<std::string>{"d"});
    EXPECT_FALSE(delta.empty());
    EXPECT_TRUE(capi::select::policyDiff(to, to).empty());
}

TEST(Policy, FingerprintTracksTierAndSpecChanges) {
    InstrumentationPolicy policy = samplePolicy();
    const std::uint64_t base = policy.fingerprint();
    EXPECT_EQ(samplePolicy().fingerprint(), base);

    InstrumentationPolicy retiered = samplePolicy();
    retiered.setRegion("Amul", {Tier::Sampled, {64, 0}});
    EXPECT_NE(retiered.fingerprint(), base);

    InstrumentationPolicy regated = samplePolicy();
    regated.setRegion("CalcHourglassControlForElems", {Tier::Sampled, {8, 500}});
    EXPECT_NE(regated.fingerprint(), base);

    // Static IDs count too, and never alias a region entry.
    InstrumentationPolicy withIds = samplePolicy();
    withIds.staticIds["Amul"] = 7;
    EXPECT_NE(withIds.fingerprint(), base);
}

TEST(Policy, FingerprintIsASumOfEntryDigests) {
    const InstrumentationPolicy policy = samplePolicy();
    InstrumentationPolicy grown = policy;
    const RegionPolicy added{Tier::Sampled, {16, 0}};
    grown.setRegion("MPI_Allreduce", added);
    EXPECT_EQ(grown.fingerprint() - policy.fingerprint(),
              InstrumentationPolicy::entryDigest("MPI_Allreduce", added));

    // A Full entry's digest ignores the (meaningless) sampling spec, as
    // RegionPolicy's equality does.
    EXPECT_EQ(InstrumentationPolicy::entryDigest("Amul", {Tier::Full, {64, 9}}),
              InstrumentationPolicy::entryDigest("Amul", {Tier::Full, {}}));
    EXPECT_NE(InstrumentationPolicy::entryDigest("Amul", {Tier::Full, {}}),
              InstrumentationPolicy::entryDigest("Amul", {Tier::Sampled, {}}));
}

// The running digest a fleet client keeps: subtract the replaced entry's
// term, add the new one. It must equal a from-scratch fingerprint() after
// every edit of a random sequence of upserts, removals, Full<->Sampled flips
// and regates.
TEST(Policy, RunningDigestMatchesFingerprintUnderRandomEdits) {
    capi::support::SplitMix64 rng(0x51DE'5EED);
    std::vector<std::string> pool;
    for (int i = 0; i < 40; ++i) {
        pool.push_back("region_" + std::to_string(i));
    }
    InstrumentationPolicy policy;
    std::uint64_t running = policy.fingerprint();
    std::size_t promotions = 0;
    std::size_t demotions = 0;
    std::size_t regates = 0;
    std::size_t removals = 0;
    for (int step = 0; step < 4000; ++step) {
        const std::string& name = pool[rng.nextBelow(pool.size())];
        RegionPolicy next;
        switch (rng.nextBelow(4)) {
            case 0: next = {Tier::Off, {}}; break;
            case 1: next = {Tier::Full, {}}; break;
            default:
                next = {Tier::Sampled,
                        {static_cast<std::uint32_t>(1u << rng.nextBelow(7)),
                         rng.nextBelow(2) * 500}};
                break;
        }
        const RegionPolicy* before = policy.policyOf(name);
        if (before != nullptr) {
            promotions += before->tier == Tier::Sampled &&
                          next.tier == Tier::Full;
            demotions += before->tier == Tier::Full &&
                         next.tier == Tier::Sampled;
            regates += before->tier == Tier::Sampled &&
                       next.tier == Tier::Sampled &&
                       before->sampling != next.sampling;
            removals += next.tier == Tier::Off;
            running -= InstrumentationPolicy::entryDigest(name, *before);
        }
        policy.setRegion(name, next);
        if (const RegionPolicy* after = policy.policyOf(name)) {
            running += InstrumentationPolicy::entryDigest(name, *after);
        }
        ASSERT_EQ(running, policy.fingerprint()) << "step " << step;
    }
    EXPECT_GT(promotions, 0u);
    EXPECT_GT(demotions, 0u);
    EXPECT_GT(regates, 0u);
    EXPECT_GT(removals, 0u);
}

}  // namespace
