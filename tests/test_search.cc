/**
 * @file
 * Property tests for the adaptive design-space search: grammar
 * round-trips, masked enumeration, Pareto bookkeeping, fuzzer seed
 * replay, and the journal's determinism/resume contract (same seed +
 * same cache state => byte-identical candidate sequence and
 * search.jsonl; a warm re-run evaluates zero new points; a truncated
 * or torn journal resumes to the identical byte stream; a tampered
 * one dies with the conflict exit code).
 *
 * The exit assertions here run in gtest's "threadsafe" death-test
 * style: by then runOnce's static SweepEngine has live worker threads,
 * and a fork-only child's std::exit would run ~SweepEngine, joining
 * threads that exist only in the parent (a crash or a hang).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "dispatch/result_cache.hh"
#include "search/driver.hh"
#include "search/journal.hh"
#include "search/pareto.hh"
#include "search/space.hh"
#include "sim/presets.hh"
#include "sim/sweep.hh"
#include "sweepio/codec.hh"
#include "workloads/suite.hh"

using namespace cfl;

namespace
{

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + "search_" + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
spit(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
    ASSERT_TRUE(out.good()) << path;
}

std::vector<std::string>
splitLines(const std::string &bytes)
{
    std::vector<std::string> lines;
    std::istringstream in(bytes);
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

/** Search options scaled down far enough that one point simulates in
 *  tens of milliseconds; everything else matches production defaults. */
search::SearchOptions
tinyOpts(const std::string &strategy, const std::string &spec)
{
    search::SearchOptions opts;
    opts.strategy = strategy;
    opts.space = search::DesignSpace::parse(spec);
    opts.workloads = {WorkloadId::DssQry, WorkloadId::WebFrontend};
    opts.scale.timingWarmupInsts = 60'000;
    opts.scale.timingMeasureInsts = 30'000;
    opts.scale.timingCores = 1;
    opts.scaleName = "tiny";
    opts.codeVersion = "test-search-v1";
    opts.seed = 7;
    opts.eta = 2;
    opts.finalists = 2;
    return opts;
}

struct RunStats
{
    search::SearchReport report;
    std::uint64_t evaluated = 0;
    std::uint64_t cached = 0;
    std::uint64_t requested = 0;
    std::uint64_t cacheMisses = 0;
    std::size_t replayed = 0;
    std::size_t appended = 0;
};

RunStats
runOnce(const search::SearchOptions &opts, const std::string &cachePath,
        const std::string &journalPath, bool resume = false)
{
    // Process-wide pool whose workers outlive every test; the death
    // tests below re-exec (threadsafe style) so the child owns its own.
    static SweepEngine engine;
    const SystemConfig config = makeSystemConfig(1);
    dispatch::ResultCache cache(cachePath, opts.codeVersion);
    search::CachedEvaluator eval(config, engine, &cache,
                                 opts.codeVersion);
    search::SearchJournal journal(journalPath, resume);
    RunStats s;
    s.report = search::runSearch(opts, eval, journal);
    s.evaluated = eval.evaluatedPoints();
    s.cached = eval.cachedPoints();
    s.requested = eval.requestedPoints();
    s.cacheMisses = cache.misses();
    s.replayed = journal.replayed();
    s.appended = journal.appended();
    return s;
}

search::ScoredCandidate
scored(const std::string &slug, double score, double kb)
{
    search::ScoredCandidate s;
    s.candidate = search::candidateFromSlug(slug);
    s.score = score;
    s.cost.kiloBytes = kb;
    s.cost.mm2 = kb / 100.0;
    return s;
}

} // namespace

// ---------------------------------------------------------------------------
// Design-space grammar.
// ---------------------------------------------------------------------------

TEST(SearchSpace, ParseEncodeCanonicalizesAxisOrder)
{
    // Axes given out of vocabulary order come back canonicalized, and
    // the canonical text is a fixed point of parse+encode.
    const search::DesignSpace space = search::DesignSpace::parse(
        "shift_history=16384,32768;kinds=fdp,confluence;"
        "air_bundles=256;btb_entries=512,1024");
    const std::string canonical =
        "kinds=fdp,confluence;btb_entries=512,1024;air_bundles=256;"
        "shift_history=16384,32768";
    EXPECT_EQ(space.encode(), canonical);
    EXPECT_EQ(search::DesignSpace::parse(canonical).encode(), canonical);
    ASSERT_EQ(space.kinds.size(), 2u);
    EXPECT_EQ(space.kinds[0], FrontendKind::Fdp);
    EXPECT_EQ(space.kinds[1], FrontendKind::Confluence);
}

TEST(SearchSpace, ParseRejectsMalformedSpecs)
{
    // Under a shuffled order the static engine may already be running.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const auto dies = [](const std::string &spec, const char *msg) {
        EXPECT_EXIT(search::DesignSpace::parse(spec),
                    ::testing::ExitedWithCode(1), msg)
            << spec;
    };
    dies("btb_entries=512", "has no kinds= entry");
    dies("kinds=fdp;btb_entries=512x", "is not a decimal integer");
    dies("kinds=fdp;btb_entries=0", "0 is reserved for \"unset\"");
    dies("kinds=fdp,fdp", "duplicate kind");
    dies("kinds=fdp;btb_banana=512", "unknown search axis");
    dies("kinds=fdp;btb_entries=512;btb_entries=1024", "duplicate axis");
    dies("kinds=fdp;btb_entries=512,512", "duplicate value");
    dies("kinds=fdp;btb_entries", "is not name=v1,v2");
}

TEST(SearchSpace, SlugsRoundTripEveryEnumeratedCandidate)
{
    const search::DesignSpace space = search::DesignSpace::parse(
        "kinds=fdp,two_level_shift,confluence;btb_entries=512,1024;"
        "l2_entries=8192,16384;air_bundles=256,512;"
        "air_branch_entries=2,3;shift_history=16384");
    const std::vector<search::Candidate> cands =
        search::enumerateCandidates(space);
    ASSERT_FALSE(cands.empty());
    for (const search::Candidate &c : cands) {
        EXPECT_EQ(search::candidateFromSlug(c.slug()), c) << c.slug();
        EXPECT_TRUE(search::validCandidate(c)) << c.slug();
    }
}

TEST(SearchSpace, EnumerationMasksIrrelevantAxes)
{
    // btb_entries is irrelevant to confluence, air_bundles to fdp —
    // each kind crosses only its own axes, so 2 kinds x 2 values give
    // 4 candidates, not 8, and no candidate carries a foreign field.
    const search::DesignSpace space = search::DesignSpace::parse(
        "kinds=fdp,confluence;btb_entries=512,1024;air_bundles=256,512");
    const std::vector<search::Candidate> cands =
        search::enumerateCandidates(space);
    ASSERT_EQ(cands.size(), 4u);
    for (const search::Candidate &c : cands) {
        if (c.kind == FrontendKind::Fdp) {
            EXPECT_NE(c.overlay.btbEntries, 0u) << c.slug();
            EXPECT_EQ(c.overlay.airBundles, 0u) << c.slug();
        } else {
            EXPECT_EQ(c.overlay.btbEntries, 0u) << c.slug();
            EXPECT_NE(c.overlay.airBundles, 0u) << c.slug();
        }
    }
    // A kind with no relevant axis yields exactly its Table-1 point.
    const std::vector<search::Candidate> baseline =
        search::enumerateCandidates(
            search::DesignSpace::parse("kinds=baseline;air_bundles=256"));
    ASSERT_EQ(baseline.size(), 1u);
    EXPECT_EQ(baseline[0].slug(), "baseline");
    EXPECT_FALSE(baseline[0].overlay.enabled());
}

TEST(SearchSpace, EnumerationFiltersStructurallyInvalidGeometry)
{
    // 96 entries / 4 ways = 24 sets: not a power of two, so the
    // candidate never reaches the sweep (whose build would assert).
    const std::vector<search::Candidate> cands =
        search::enumerateCandidates(search::DesignSpace::parse(
            "kinds=fdp;btb_entries=96,1024"));
    ASSERT_EQ(cands.size(), 1u);
    EXPECT_EQ(cands[0].overlay.btbEntries, 1024u);
}

// ---------------------------------------------------------------------------
// Pareto bookkeeping.
// ---------------------------------------------------------------------------

TEST(SearchPareto, FrontKeepsNonDominatedOrderedByStorage)
{
    const std::vector<search::ScoredCandidate> cands = {
        scored("fdp", 1.20, 10.0),                   // on front
        scored("two_level_shift", 1.05, 30.0),       // dominated
        scored("confluence", 1.10, 5.0),             // on front
        scored("ideal_btb_shift", 1.30, 20.0),       // on front
        scored("fdp+btb_entries=512", 1.10, 5.0),    // tie: stays
    };
    const std::vector<std::size_t> front = search::paretoFront(cands);
    // Ordered by KB asc, score desc, slug asc.
    ASSERT_EQ(front.size(), 4u);
    EXPECT_EQ(cands[front[0]].candidate.slug(), "confluence");
    EXPECT_EQ(cands[front[1]].candidate.slug(), "fdp+btb_entries=512");
    EXPECT_EQ(cands[front[2]].candidate.slug(), "fdp");
    EXPECT_EQ(cands[front[3]].candidate.slug(), "ideal_btb_shift");
    EXPECT_EQ(search::bestScored(cands), 3u);
}

TEST(SearchPareto, BestBreaksScoreTiesTowardCheaperStorage)
{
    const std::vector<search::ScoredCandidate> cands = {
        scored("fdp", 1.25, 10.0),
        scored("confluence", 1.25, 5.0),
    };
    EXPECT_EQ(search::bestScored(cands), 1u);
}

TEST(SearchPareto, CsvAndJsonCarryEveryCandidate)
{
    const std::vector<search::ScoredCandidate> cands = {
        scored("fdp", 1.20, 10.0),
        scored("two_level_shift", 1.05, 30.0),
    };
    const std::vector<std::size_t> front = search::paretoFront(cands);
    const std::string csv = search::paretoCsv(cands, front);
    EXPECT_NE(csv.find("candidate,kind,storage_kb,area_mm2,"
                       "geomean_speedup,on_front"),
              std::string::npos);
    EXPECT_NE(csv.find("fdp,fdp,"), std::string::npos);
    EXPECT_NE(csv.find("two_level_shift"), std::string::npos);
    const std::string json = search::paretoJson(cands, front);
    EXPECT_NE(json.find("\"score_bits\""), std::string::npos);
    EXPECT_NE(json.find("\"on_front\":true"), std::string::npos);
    EXPECT_NE(json.find("\"on_front\":false"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Fuzzer seed replay.
// ---------------------------------------------------------------------------

TEST(SearchFuzzer, TrialPointsAreSeedReplayableAndRoundTrip)
{
    const search::DesignSpace space = search::DesignSpace::parse(
        "kinds=fdp,two_level_shift,confluence;btb_entries=512,1024;"
        "l2_entries=8192,16384;air_bundles=256,512;shift_history=16384");
    RunScale scale;
    scale.timingWarmupInsts = 60'000;
    scale.timingMeasureInsts = 30'000;
    scale.timingCores = 1;
    for (std::uint64_t trial = 0; trial < 24; ++trial) {
        const SweepPoint once =
            search::fuzzerTrialPoint(space, scale, 42, trial);
        const SweepPoint again =
            search::fuzzerTrialPoint(space, scale, 42, trial);
        const std::string enc = sweepio::encodePoint(once);
        // Same (space, scale, seed, trial) => identical encoding.
        EXPECT_EQ(sweepio::encodePoint(again), enc) << trial;
        // Every fuzzer point survives the codec bit-exactly.
        EXPECT_EQ(sweepio::encodePoint(sweepio::decodePoint(enc)), enc)
            << trial;
        // And belongs to the candidate the replay API reports.
        const search::Candidate cand =
            search::fuzzerTrialCandidate(space, 42, trial);
        EXPECT_EQ(cand.kind, once.kind) << trial;
        EXPECT_EQ(cand.overlay, once.overlay) << trial;
        EXPECT_TRUE(search::validCandidate(cand)) << cand.slug();
    }
}

TEST(SearchFuzzer, DistinctSeedsDrawDistinctTrialSequences)
{
    const search::DesignSpace space = search::DesignSpace::parse(
        "kinds=fdp,confluence;btb_entries=512,1024;air_bundles=256,512");
    RunScale scale;
    scale.timingCores = 1;
    bool diverged = false;
    for (std::uint64_t trial = 0; trial < 16 && !diverged; ++trial)
        diverged = sweepio::encodePoint(search::fuzzerTrialPoint(
                       space, scale, 1, trial)) !=
                   sweepio::encodePoint(search::fuzzerTrialPoint(
                       space, scale, 2, trial));
    EXPECT_TRUE(diverged);
}

// ---------------------------------------------------------------------------
// Journal determinism, warm-cache behavior, resume, and conflicts.
// All sim-backed tests share one result-cache store so points simulate
// once across the whole suite; assertions about *cold* behavior use
// private stores.
// ---------------------------------------------------------------------------

TEST(SearchDriver, JournalIsByteIdenticalAcrossCacheStates)
{
    const search::SearchOptions opts =
        tinyOpts("halving", "kinds=fdp;btb_entries=512,1024");

    // Cold: private cache, everything simulates.
    const std::string cacheA = tmpPath("det_cache_a.jsonl");
    std::remove(cacheA.c_str());
    const std::string j1 = tmpPath("det_journal_1.jsonl");
    std::remove(j1.c_str());
    const RunStats cold = runOnce(opts, cacheA, j1);
    EXPECT_GT(cold.evaluated, 0u);
    EXPECT_EQ(cold.cached, 0u);
    EXPECT_EQ(cold.requested, cold.evaluated);
    EXPECT_GT(cold.appended, 0u);
    EXPECT_EQ(cold.replayed, 0u);

    // Warm: same cache, zero fresh simulations, zero cache misses,
    // byte-identical journal.
    const std::string j2 = tmpPath("det_journal_2.jsonl");
    std::remove(j2.c_str());
    const RunStats warm = runOnce(opts, cacheA, j2);
    EXPECT_EQ(warm.evaluated, 0u);
    EXPECT_EQ(warm.cacheMisses, 0u);
    EXPECT_EQ(warm.cached, warm.requested);
    EXPECT_EQ(warm.requested, cold.requested);
    EXPECT_EQ(slurp(j2), slurp(j1));

    // Fresh cache elsewhere: journal records carry no cache state, so
    // the transcript still matches byte-for-byte.
    const std::string cacheB = tmpPath("det_cache_b.jsonl");
    std::remove(cacheB.c_str());
    const std::string j3 = tmpPath("det_journal_3.jsonl");
    std::remove(j3.c_str());
    const RunStats fresh = runOnce(opts, cacheB, j3);
    EXPECT_EQ(fresh.evaluated, cold.evaluated);
    EXPECT_EQ(slurp(j3), slurp(j1));

    // Reports agree too.
    EXPECT_EQ(warm.report.best, cold.report.best);
    EXPECT_EQ(warm.report.bestScore, cold.report.bestScore);
}

TEST(SearchDriver, ResumeReplaysEveryPrefixToTheIdenticalJournal)
{
    // finalists=1 over four candidates forces two sampled elimination
    // rungs before the exact finals, so the reference journal holds
    // keep/drop decisions and multi-round evals to resume through.
    search::SearchOptions opts = tinyOpts(
        "halving",
        "kinds=fdp,confluence;btb_entries=512,1024;air_bundles=256,512");
    opts.finalists = 1;
    const std::string cache = tmpPath("shared_cache.jsonl");
    const std::string ref = tmpPath("resume_ref.jsonl");
    std::remove(ref.c_str());
    runOnce(opts, cache, ref);
    const std::string refBytes = slurp(ref);
    const std::vector<std::string> lines = splitLines(refBytes);
    ASSERT_GT(lines.size(), 2u);

    for (const std::size_t keep :
         {std::size_t{1}, lines.size() / 2, lines.size() - 1}) {
        const std::string path = tmpPath("resume_cut.jsonl");
        std::string prefix;
        for (std::size_t i = 0; i < keep; ++i)
            prefix += lines[i] + "\n";
        spit(path, prefix);
        const RunStats resumed = runOnce(opts, cache, path, true);
        EXPECT_EQ(resumed.replayed, keep) << keep;
        EXPECT_EQ(resumed.appended, lines.size() - keep) << keep;
        EXPECT_EQ(resumed.evaluated, 0u) << keep;
        EXPECT_EQ(slurp(path), refBytes) << keep;
    }

    // A torn append (partial trailing line, no newline) is dropped and
    // overwritten; the resumed journal still converges byte-for-byte.
    const std::string torn = tmpPath("resume_torn.jsonl");
    spit(torn, lines[0] + "\n" + lines[1] + "\n" +
                   lines[2].substr(0, lines[2].size() / 2));
    const RunStats resumed = runOnce(opts, cache, torn, true);
    EXPECT_EQ(resumed.replayed, 2u);
    EXPECT_EQ(resumed.appended, lines.size() - 2);
    EXPECT_EQ(slurp(torn), refBytes);

    // Resuming a *complete* journal replays everything, appends
    // nothing, and leaves the file untouched.
    const RunStats whole = runOnce(opts, cache, ref, true);
    EXPECT_EQ(whole.replayed, lines.size());
    EXPECT_EQ(whole.appended, 0u);
    EXPECT_EQ(slurp(ref), refBytes);
}

TEST(SearchDriver, TamperedOrClobberedJournalsRefuseToContinue)
{
    // The child re-execs and builds its own pool; gtest restores the
    // flag when the test ends.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const search::SearchOptions opts =
        tinyOpts("halving", "kinds=fdp;btb_entries=512,1024");
    const std::string cache = tmpPath("shared_cache.jsonl");
    const std::string ref = tmpPath("conflict_ref.jsonl");
    std::remove(ref.c_str());
    runOnce(opts, cache, ref);
    const std::vector<std::string> lines = splitLines(slurp(ref));
    ASSERT_GT(lines.size(), 1u);

    // A journal whose second record diverges from the deterministic
    // replay — still decodable, so not a torn-tail skip — is
    // corruption: exit kSearchExitJournalConflict.
    std::string bad = lines[1]; // the round-0 record
    const std::size_t at = bad.find("\"round\":0");
    ASSERT_NE(at, std::string::npos) << bad;
    bad.replace(at, 9, "\"round\":9");
    const std::string path = tmpPath("conflict_tampered.jsonl");
    spit(path, lines[0] + "\n" + bad + "\n");
    EXPECT_EXIT(
        runOnce(opts, cache, path, true),
        ::testing::ExitedWithCode(search::kSearchExitJournalConflict),
        "journal conflict");

    // A different search (other seed) against this journal conflicts
    // on the header record already.
    search::SearchOptions other = opts;
    other.seed = 8;
    EXPECT_EXIT(
        runOnce(other, cache, ref, true),
        ::testing::ExitedWithCode(search::kSearchExitJournalConflict),
        "journal conflict");

    // And a non-empty journal without --resume is refused outright.
    EXPECT_EXIT(runOnce(opts, cache, ref, false),
                ::testing::ExitedWithCode(1), "pass --resume");
}

TEST(SearchDriver, HalvingFinalsMatchTheExhaustiveReference)
{
    // finalists covers the whole candidate set here, so halving's
    // exact final round scores the same points exhaustive does — the
    // winner and its score must agree bit-for-bit over a shared cache.
    const std::string spec = "kinds=fdp,confluence;btb_entries=512,1024;"
                             "air_bundles=256,512";
    const std::string cache = tmpPath("shared_cache.jsonl");

    search::SearchOptions exact = tinyOpts("exhaustive", spec);
    const std::string je = tmpPath("gate_exhaustive.jsonl");
    std::remove(je.c_str());
    const RunStats full = runOnce(exact, cache, je);
    ASSERT_EQ(full.report.scored.size(), 4u);

    search::SearchOptions halve = tinyOpts("halving", spec);
    halve.finalists = 4;
    halve.sampledScreening = false;
    const std::string jh = tmpPath("gate_halving.jsonl");
    std::remove(jh.c_str());
    const RunStats adaptive = runOnce(halve, cache, jh);

    EXPECT_EQ(adaptive.report.best, full.report.best);
    EXPECT_EQ(adaptive.report.bestScore, full.report.bestScore);
    EXPECT_EQ(adaptive.report.bestCost.kiloBytes,
              full.report.bestCost.kiloBytes);
    // The front is computed from final scores the same way.
    EXPECT_EQ(adaptive.report.front.size(), full.report.front.size());
}

TEST(SearchDriver, DescentAndFuzzStrategiesRunTheTinySpaceClean)
{
    const std::string cache = tmpPath("shared_cache.jsonl");

    search::SearchOptions descent =
        tinyOpts("descent", "kinds=fdp;btb_entries=512,1024");
    const std::string jd = tmpPath("strategies_descent.jsonl");
    std::remove(jd.c_str());
    const RunStats walked = runOnce(descent, cache, jd);
    ASSERT_FALSE(walked.report.scored.empty());
    double top = 0.0;
    for (const search::ScoredCandidate &s : walked.report.scored)
        top = std::max(top, s.score);
    // Descent's best is the max over everything it scored, and it
    // never reports a candidate it did not journal.
    EXPECT_EQ(walked.report.bestScore, top);
    EXPECT_GE(walked.report.rounds, 1u);

    search::SearchOptions fuzz =
        tinyOpts("fuzz", "kinds=fdp,confluence;btb_entries=512,1024;"
                         "air_bundles=256,512");
    fuzz.budget = 2;
    const std::string jf = tmpPath("strategies_fuzz.jsonl");
    std::remove(jf.c_str());
    const RunStats fuzzed = runOnce(fuzz, cache, jf);
    EXPECT_TRUE(fuzzed.report.violation.empty())
        << fuzzed.report.violation;
    EXPECT_EQ(fuzzed.report.scored.size(), 2u);
    EXPECT_EQ(fuzzed.report.rounds, 2u);
    EXPECT_FALSE(fuzzed.report.best.empty());

    // A fuzz re-run over the warm cache is free and byte-identical.
    const std::string jf2 = tmpPath("strategies_fuzz_2.jsonl");
    std::remove(jf2.c_str());
    const RunStats again = runOnce(fuzz, cache, jf2);
    EXPECT_EQ(again.evaluated, 0u);
    EXPECT_EQ(slurp(jf2), slurp(jf));
}
