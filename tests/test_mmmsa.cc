// Golden tests for tools/mmmsa: every check against its bad / clean /
// suppressed fixture trees under tests/sa_fixtures/, the suppression
// grammar, the formatters and baseline, plus the self-check that the real
// tree is finding-free modulo the checked-in baseline. The fixtures mirror
// the src/ layout below an extra prefix (EffectivePath strips it) so
// path-gated checks behave exactly as in the real tree. The token rules'
// suites keep their MmmlintRules / MmmlintDriver names so their test ids
// stay stable.

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "tools/mmmsa/sa.h"

namespace mmmsa {
namespace {

std::string FixtureDir(const std::string& group, const std::string& variant) {
  return std::string(MMM_SA_FIXTURES) + "/" + group + "/" + variant;
}

std::vector<Finding> AnalyzeDirs(const std::vector<std::string>& dirs,
                                 const std::set<std::string>& only = {}) {
  SaOptions options;
  options.only_analyses = only;
  std::vector<std::string> io_errors;
  std::vector<Finding> findings = AnalyzePaths(dirs, options, &io_errors);
  EXPECT_TRUE(io_errors.empty());
  return findings;
}

std::vector<Finding> Analyze(const std::string& group,
                             const std::string& variant,
                             const std::string& only = "") {
  std::set<std::string> checks;
  if (!only.empty()) checks.insert(only);
  return AnalyzeDirs({FixtureDir(group, variant)}, checks);
}

bool HasFinding(const std::vector<Finding>& findings, const std::string& rule,
                const std::string& symbol_fragment) {
  return std::any_of(findings.begin(), findings.end(), [&](const Finding& f) {
    return f.rule == rule &&
           f.symbol.find(symbol_fragment) != std::string::npos;
  });
}

bool HasFindingAt(const std::vector<Finding>& findings,
                  const std::string& rule, const std::string& file_suffix,
                  int line) {
  return std::any_of(findings.begin(), findings.end(), [&](const Finding& f) {
    return f.rule == rule && f.line == line &&
           f.file.size() >= file_suffix.size() &&
           f.file.compare(f.file.size() - file_suffix.size(),
                          file_suffix.size(), file_suffix) == 0;
  });
}

const std::vector<std::string> kTokenRules = {
    "banned-random",       "discarded-status", "naked-new",
    "naked-delete",        "mutex-missing-guard", "raw-std-mutex",
    "direct-env-write",    "direct-env-read",  "direct-manager-open",
    "chunk-delete",        "include-cycle"};

/// Checks that judge each file on its own (include-cycle: each tree's own
/// include graph), so analyzing two fixture trees together must not change
/// either tree's findings.
std::set<std::string> FileLocalChecks() {
  std::set<std::string> checks(kTokenRules.begin(), kTokenRules.end());
  checks.insert("layer-dag");
  checks.insert("status-flow");
  return checks;
}

/// Fixture group of a check: "naked-new" -> "naked_new".
std::string GroupOf(std::string check) {
  std::replace(check.begin(), check.end(), '-', '_');
  return check;
}

TEST(MmmsaCatalog, AnalysisNamesAreStable) {
  EXPECT_EQ(AnalysisNames(),
            (std::vector<std::string>{
                "lock-order", "status-flow", "journal-path", "layer-dag",
                "banned-random", "discarded-status", "naked-new",
                "naked-delete", "mutex-missing-guard", "raw-std-mutex",
                "direct-env-write", "direct-env-read", "direct-manager-open",
                "chunk-delete", "include-cycle"}));
}

// ---------------------------------------------------------------------------
// lock-order: seeded cycle.

TEST(MmmsaLockOrder, SeededCycleFires) {
  std::vector<Finding> findings = Analyze("lock_cycle", "bad", "lock-order");
  EXPECT_TRUE(HasFinding(findings, "lock-cycle", "Tangle::a_"))
      << FormatText(findings);
  EXPECT_TRUE(HasFinding(findings, "lock-cycle", "Tangle::b_"))
      << FormatText(findings);
  // The against-rank direction of the cycle is also a rank inversion.
  EXPECT_TRUE(HasFinding(findings, "rank-inversion", "Tangle::b_->Tangle::a_"))
      << FormatText(findings);
}

TEST(MmmsaLockOrder, CycleCleanVariantIsSilent) {
  EXPECT_TRUE(Analyze("lock_cycle", "clean").empty());
}

TEST(MmmsaLockOrder, CycleSuppressedVariantIsSilent) {
  EXPECT_TRUE(Analyze("lock_cycle", "suppressed").empty());
}

// ---------------------------------------------------------------------------
// lock-order: seeded rank inversion (no cycle).

TEST(MmmsaLockOrder, SeededRankInversionFires) {
  std::vector<Finding> findings =
      Analyze("rank_inversion", "bad", "lock-order");
  EXPECT_TRUE(
      HasFinding(findings, "rank-inversion", "Inverted::high_->Inverted::low_"))
      << FormatText(findings);
  EXPECT_FALSE(HasFinding(findings, "lock-cycle", "Inverted"))
      << FormatText(findings);
}

TEST(MmmsaLockOrder, RankInversionCleanVariantIsSilent) {
  EXPECT_TRUE(Analyze("rank_inversion", "clean").empty());
}

TEST(MmmsaLockOrder, RankInversionSuppressedVariantIsSilent) {
  EXPECT_TRUE(Analyze("rank_inversion", "suppressed").empty());
}

// ---------------------------------------------------------------------------
// status-flow: drop on early return, overwrite, drop at scope exit.

TEST(MmmsaStatusFlow, SeededBugsFire) {
  std::vector<Finding> findings = Analyze("status_flow", "bad", "status-flow");
  EXPECT_TRUE(HasFinding(findings, "status-drop", "DropOnEarlyReturn::st"))
      << FormatText(findings);
  EXPECT_TRUE(
      HasFinding(findings, "status-overwrite", "OverwriteUnchecked::st"))
      << FormatText(findings);
  EXPECT_TRUE(HasFinding(findings, "status-drop", "DropAtScopeExit::st"))
      << FormatText(findings);
  EXPECT_EQ(findings.size(), 3u) << FormatText(findings);
}

TEST(MmmsaStatusFlow, CleanVariantIsSilent) {
  std::vector<Finding> findings = Analyze("status_flow", "clean");
  EXPECT_TRUE(findings.empty()) << FormatText(findings);
}

TEST(MmmsaStatusFlow, SuppressedVariantIsSilent) {
  std::vector<Finding> findings = Analyze("status_flow", "suppressed");
  EXPECT_TRUE(findings.empty()) << FormatText(findings);
}

// ---------------------------------------------------------------------------
// journal-path: un-journaled delete reachable through a helper.

TEST(MmmsaJournalPath, SeededRawDeleteFires) {
  std::vector<Finding> findings =
      Analyze("journal_path", "bad", "journal-path");
  // The finding lands on the outermost entry point, not the helper.
  EXPECT_TRUE(HasFinding(findings, "unjournaled-delete", "SweepEverything"))
      << FormatText(findings);
  EXPECT_FALSE(HasFinding(findings, "unjournaled-delete", "EvictBlobRaw"))
      << FormatText(findings);
}

TEST(MmmsaJournalPath, JournaledVariantIsSilent) {
  std::vector<Finding> findings = Analyze("journal_path", "clean");
  EXPECT_TRUE(findings.empty()) << FormatText(findings);
}

TEST(MmmsaJournalPath, SuppressedVariantIsSilent) {
  std::vector<Finding> findings = Analyze("journal_path", "suppressed");
  EXPECT_TRUE(findings.empty()) << FormatText(findings);
}

// ---------------------------------------------------------------------------
// layer-dag: upward include.

TEST(MmmsaLayerDag, UpwardIncludeFires) {
  std::vector<Finding> findings = Analyze("layer_dag", "bad", "layer-dag");
  EXPECT_TRUE(HasFinding(findings, "layer-violation", "storage->serve"))
      << FormatText(findings);
  EXPECT_EQ(findings.size(), 1u) << FormatText(findings);
}

TEST(MmmsaLayerDag, DownwardIncludesAreSilent) {
  EXPECT_TRUE(Analyze("layer_dag", "clean").empty());
}

TEST(MmmsaLayerDag, SuppressedVariantIsSilent) {
  EXPECT_TRUE(Analyze("layer_dag", "suppressed").empty());
}

// ---------------------------------------------------------------------------
// Token rules: each bad tree produces its findings at the same rule and
// line; each suppressed twin is clean under the whole catalog.

void ExpectSuppressedTwinClean(const std::string& group) {
  std::vector<Finding> findings = Analyze(group, "suppressed");
  EXPECT_TRUE(findings.empty()) << FormatText(findings);
}

TEST(MmmlintRules, CatalogIsStable) {
  const std::vector<std::string>& names = AnalysisNames();
  std::set<std::string> have(names.begin(), names.end());
  for (const std::string& rule : kTokenRules) {
    EXPECT_TRUE(have.count(rule) != 0) << "missing rule: " << rule;
  }
}

TEST(MmmlintRules, BannedRandom) {
  std::vector<Finding> findings = Analyze("banned_random", "bad");
  EXPECT_TRUE(HasFindingAt(findings, "banned-random", "bad.cc", 5));
  EXPECT_TRUE(HasFindingAt(findings, "banned-random", "bad.cc", 9));
  ExpectSuppressedTwinClean("banned_random");
}

TEST(MmmlintRules, DiscardedStatus) {
  std::vector<Finding> findings = Analyze("discarded_status", "bad");
  EXPECT_TRUE(HasFindingAt(findings, "discarded-status", "bad.cc", 12))
      << "bare-statement Commit() not flagged";
  EXPECT_TRUE(HasFindingAt(findings, "discarded-status", "bad.cc", 13))
      << "(void)-cast DeleteFile() not flagged";
  ExpectSuppressedTwinClean("discarded_status");
}

TEST(MmmlintRules, NakedNew) {
  std::vector<Finding> findings = Analyze("naked_new", "bad");
  EXPECT_TRUE(HasFindingAt(findings, "naked-new", "bad.cc", 7));
  // The suppressed twin also holds a unique_ptr construction that must not
  // be flagged in the first place.
  ExpectSuppressedTwinClean("naked_new");
}

TEST(MmmlintRules, NakedDelete) {
  std::vector<Finding> findings = Analyze("naked_delete", "bad");
  EXPECT_TRUE(HasFindingAt(findings, "naked-delete", "bad.cc", 7));
  ExpectSuppressedTwinClean("naked_delete");
}

TEST(MmmlintRules, RawStdMutex) {
  // bad.h also trips mutex-missing-guard (that rule has its own fixture).
  std::vector<Finding> findings = Analyze("raw_std_mutex", "bad");
  EXPECT_TRUE(HasFindingAt(findings, "raw-std-mutex", "bad.h", 11));
  ExpectSuppressedTwinClean("raw_std_mutex");
}

TEST(MmmlintRules, MutexMissingGuard) {
  std::vector<Finding> findings = Analyze("mutex_missing_guard", "bad");
  EXPECT_TRUE(HasFindingAt(findings, "mutex-missing-guard", "bad.h", 12));
  // A ranked declaration (`Mutex mu_ MMM_LOCK_RANK(n);`) is still a member.
  EXPECT_TRUE(HasFindingAt(findings, "mutex-missing-guard", "bad.h", 20));
  // suppressed.h holds an annotated class (no finding to begin with) and a
  // suppressed one; neither may surface.
  ExpectSuppressedTwinClean("mutex_missing_guard");
}

TEST(MmmlintRules, DirectEnvWrite) {
  std::vector<Finding> findings = Analyze("direct_env_write", "bad");
  EXPECT_TRUE(HasFindingAt(findings, "direct-env-write", "bad.cc", 9));
  EXPECT_TRUE(HasFindingAt(findings, "direct-env-write", "bad.cc", 11));
  // FileStore::Put / PutString / Append, through a pointer or a store.
  EXPECT_TRUE(HasFindingAt(findings, "direct-env-write", "bad.cc", 19));
  EXPECT_TRUE(HasFindingAt(findings, "direct-env-write", "bad.cc", 21));
  EXPECT_TRUE(HasFindingAt(findings, "direct-env-write", "bad.cc", 23));
  // JsonValue::Append on a local array is not a store write.
  EXPECT_FALSE(HasFindingAt(findings, "direct-env-write", "bad.cc", 29));
  ExpectSuppressedTwinClean("direct_env_write");
}

TEST(MmmlintRules, DirectEnvRead) {
  std::vector<Finding> findings = Analyze("direct_env_read", "bad");
  EXPECT_TRUE(HasFindingAt(findings, "direct-env-read", "bad.cc", 9));
  EXPECT_TRUE(HasFindingAt(findings, "direct-env-read", "bad.cc", 11));
  ExpectSuppressedTwinClean("direct_env_read");
}

TEST(MmmlintRules, DirectManagerOpen) {
  std::vector<Finding> findings = Analyze("direct_manager_open", "bad");
  EXPECT_TRUE(HasFindingAt(findings, "direct-manager-open", "bad.cc", 13));
  ExpectSuppressedTwinClean("direct_manager_open");
}

TEST(MmmlintRules, ChunkDelete) {
  std::vector<Finding> findings = Analyze("chunk_delete", "bad");
  EXPECT_TRUE(HasFindingAt(findings, "chunk-delete", "bad.cc", 7))
      << "Delete(ChunkBlobName(...)) not flagged";
  EXPECT_TRUE(HasFindingAt(findings, "chunk-delete", "bad.cc", 9))
      << "Delete(kCasChunkPrefix + ...) not flagged";
  EXPECT_TRUE(HasFindingAt(findings, "chunk-delete", "bad.cc", 11))
      << "Delete(\"cas-...\") literal not flagged";
  ExpectSuppressedTwinClean("chunk_delete");
}

TEST(MmmlintRules, ChunkDeleteExemptsCasSweeper) {
  // The real sweeper (src/cas/) deletes chunk blobs by design and must not
  // be flagged when the source tree itself is analyzed.
  std::vector<Finding> findings = AnalyzeDirs(
      {std::string(MMM_SOURCE_ROOT) + "/src/cas"}, {"chunk-delete"});
  EXPECT_TRUE(findings.empty()) << FormatText(findings);
}

TEST(MmmlintRules, IncludeCycle) {
  std::vector<Finding> findings = Analyze("include_cycle", "bad");
  ASSERT_EQ(findings.size(), 1u) << FormatText(findings);
  EXPECT_EQ(findings[0].rule, "include-cycle");
  // The cycle text names both members whichever edge closes it.
  EXPECT_NE(findings[0].message.find("a.h"), std::string::npos);
  EXPECT_NE(findings[0].message.find("b.h"), std::string::npos);
  EXPECT_EQ(findings[0].symbol, "core/a.h<->core/b.h");
  // The suppression on the back-edge include takes.
  ExpectSuppressedTwinClean("include_cycle");
}

// ---------------------------------------------------------------------------
// Driver: whole-tree runs, filters, I/O, formatters, suppression listing.

TEST(MmmlintDriver, WholeFixtureTreeRespectsSuppressions) {
  // Analyzing the whole fixture tree at once must surface findings only
  // from the bad fixtures; every clean and suppressed twin stays silent.
  std::vector<Finding> findings = AnalyzeDirs({std::string(MMM_SA_FIXTURES)});
  EXPECT_FALSE(findings.empty());
  for (const Finding& f : findings) {
    EXPECT_NE(f.path.find("/bad/"), std::string::npos)
        << f.path << ":" << f.line << " [" << f.rule << "]";
  }
}

TEST(MmmlintDriver, RuleFilterRestrictsOutput) {
  std::vector<Finding> findings =
      AnalyzeDirs({std::string(MMM_SA_FIXTURES)}, {"banned-random"});
  EXPECT_FALSE(findings.empty());
  for (const Finding& f : findings) EXPECT_EQ(f.rule, "banned-random");
}

TEST(MmmlintDriver, UnreadablePathReportsIoFinding) {
  std::vector<std::string> io_errors;
  std::vector<Finding> findings =
      AnalyzePaths({FixtureDir("does_not_exist", "anywhere")}, SaOptions{},
                   &io_errors);
  EXPECT_TRUE(findings.empty());
  ASSERT_EQ(io_errors.size(), 1u);
  EXPECT_NE(io_errors[0].find("does_not_exist"), std::string::npos);
}

TEST(MmmlintDriver, FormattersRenderEveryFinding) {
  std::vector<Finding> findings = Analyze("banned_random", "bad");
  ASSERT_FALSE(findings.empty());
  std::string text = FormatText(findings);
  EXPECT_NE(text.find("[banned-random]"), std::string::npos) << text;
  // One line per finding plus the summary tail.
  EXPECT_EQ(static_cast<size_t>(std::count(text.begin(), text.end(), '\n')),
            findings.size() + 1);
  std::string sarif = FormatSarif(findings);
  EXPECT_NE(sarif.find("\"ruleId\": \"banned-random\""), std::string::npos);
  EXPECT_NE(sarif.find("src/core/bad.cc"), std::string::npos);
}

TEST(MmmlintDriver, ListSuppressionsReportsFileRuleAndReason) {
  std::vector<std::string> io_errors;
  std::vector<SuppressionNote> notes = ListSuppressions(
      {FixtureDir("direct_manager_open", "suppressed")}, &io_errors);
  EXPECT_TRUE(io_errors.empty());
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_NE(notes[0].path.find("suppressed.cc"), std::string::npos);
  EXPECT_EQ(notes[0].line, 8);
  EXPECT_EQ(notes[0].name, "direct-manager-open");
  EXPECT_EQ(notes[0].reason, "fixture models a sanctioned standalone tool");
}

TEST(MmmlintDriver, ListSuppressionsIgnoresSyntaxDocumentation) {
  // The analyzer's own sources document the `MMMSA(...)` syntax in comments;
  // none of that is a suppression, and neither is the prose in the clean
  // suppression fixture (which holds exactly one real suppression).
  std::vector<std::string> io_errors;
  EXPECT_TRUE(ListSuppressions({std::string(MMM_SOURCE_ROOT) + "/tools/mmmsa"},
                               &io_errors)
                  .empty());
  std::vector<SuppressionNote> notes =
      ListSuppressions({FixtureDir("suppression", "clean")}, &io_errors);
  EXPECT_TRUE(io_errors.empty());
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_EQ(notes[0].line, 10);
  EXPECT_EQ(notes[0].name, "naked-delete");
}

// ---------------------------------------------------------------------------
// Suppression grammar: one comment may carry several markers, invalid ones
// are reported, and a suppression only covers the file that holds it.

TEST(MmmsaSuppression, EveryMarkerInACommentCounts) {
  std::vector<std::string> io_errors;
  std::vector<SuppressionNote> notes = ListSuppressions(
      {FixtureDir("discarded_status", "suppressed")}, &io_errors);
  ASSERT_EQ(notes.size(), 3u);
  EXPECT_EQ(notes[1].line, 12);
  EXPECT_EQ(notes[1].name, "discarded-status");
  EXPECT_EQ(notes[1].reason, "removal failure is benign here.");
  EXPECT_EQ(notes[2].line, 12);
  EXPECT_EQ(notes[2].name, "journal-path");
  EXPECT_EQ(notes[2].reason, "fixture deletes a scratch file");
}

TEST(MmmsaSuppression, InvalidSuppressionsAreReportedAndWaiveNothing) {
  std::vector<Finding> findings = Analyze("suppression", "bad");
  EXPECT_EQ(findings.size(), 4u) << FormatText(findings);
  // No reason: reported, and the delete on its line still fires.
  EXPECT_TRUE(HasFindingAt(findings, "invalid-suppression", "waivers.cc", 8));
  EXPECT_TRUE(HasFindingAt(findings, "naked-delete", "waivers.cc", 8));
  // A name outside the catalog: reported, and the delete below still fires.
  EXPECT_TRUE(HasFindingAt(findings, "invalid-suppression", "waivers.cc", 12));
  EXPECT_TRUE(HasFindingAt(findings, "naked-delete", "waivers.cc", 13));
  // A check filter narrows the report to that check.
  std::vector<Finding> filtered =
      Analyze("suppression", "bad", "naked-delete");
  EXPECT_EQ(filtered.size(), 2u) << FormatText(filtered);
}

TEST(MmmsaSuppression, SyntaxDocumentationIsSilent) {
  std::vector<Finding> findings = Analyze("suppression", "clean");
  EXPECT_TRUE(findings.empty()) << FormatText(findings);
}

TEST(MmmsaSuppression, MatchesTheFileThatHoldsTheComment) {
  // The bad and suppressed trees share effective paths; a suppression in
  // one must not silence the other.
  for (const auto& [group, count] :
       std::vector<std::pair<std::string, size_t>>{
           {"status_flow", 3}, {"lock_cycle", 2}, {"layer_dag", 1}}) {
    for (const char* twin : {"suppressed", "clean"}) {
      std::vector<Finding> findings =
          AnalyzeDirs({FixtureDir(group, "bad"), FixtureDir(group, twin)});
      EXPECT_EQ(findings.size(), count)
          << group << " bad+" << twin << "\n" << FormatText(findings);
    }
  }
}

TEST(MmmsaSuppression, FileLocalBadAndSuppressedTreesTogetherGiveTheBadFindings) {
  std::vector<std::string> bad, both;
  for (const std::string& check : FileLocalChecks()) {
    bad.push_back(FixtureDir(GroupOf(check), "bad"));
    both.push_back(FixtureDir(GroupOf(check), "bad"));
    both.push_back(FixtureDir(GroupOf(check), "suppressed"));
  }
  std::vector<Finding> expected = AnalyzeDirs(bad, FileLocalChecks());
  std::vector<Finding> actual = AnalyzeDirs(both, FileLocalChecks());
  EXPECT_FALSE(expected.empty());
  EXPECT_TRUE(actual == expected) << "bad alone:\n"
                                  << FormatText(expected)
                                  << "bad + suppressed:\n"
                                  << FormatText(actual);
}

// ---------------------------------------------------------------------------
// Formatters and the baseline ratchet.

TEST(MmmsaFormat, TextAndSarifCarryTheFinding) {
  std::vector<Finding> findings = Analyze("layer_dag", "bad");
  ASSERT_FALSE(findings.empty());
  std::string text = FormatText(findings);
  EXPECT_NE(text.find("layer-violation"), std::string::npos) << text;
  EXPECT_NE(text.find("src/storage/up_include.h"), std::string::npos) << text;
  std::string sarif = FormatSarif(findings);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"layer-violation\""), std::string::npos);
  EXPECT_NE(sarif.find("src/storage/up_include.h"), std::string::npos);
}

TEST(MmmsaFormat, EmptySarifIsWellFormedEnough) {
  std::string sarif = FormatSarif({});
  EXPECT_NE(sarif.find("\"results\": []"), std::string::npos) << sarif;
}

void ExpectBaselineRoundTrip(std::vector<Finding> findings,
                             const std::string& name) {
  ASSERT_FALSE(findings.empty());
  std::string serialized = FormatBaseline(findings);
  std::string path = ::testing::TempDir() + "/" + name;
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fwrite(serialized.data(), 1, serialized.size(), f);
    fclose(f);
  }
  std::string error;
  ASSERT_TRUE(ApplyBaseline(path, &findings, &error)) << error;
  EXPECT_TRUE(findings.empty()) << FormatText(findings);
}

TEST(MmmsaBaseline, RoundTripFiltersBaselinedFindings) {
  ExpectBaselineRoundTrip(Analyze("lock_cycle", "bad"),
                          "mmmsa_baseline_roundtrip.txt");
}

TEST(MmmsaBaseline, TokenFindingsCarryStableSymbols) {
  std::vector<std::string> dirs;
  for (const std::string& rule : kTokenRules) {
    dirs.push_back(FixtureDir(GroupOf(rule), "bad"));
  }
  std::vector<Finding> findings = AnalyzeDirs(dirs);
  std::set<std::string> rules;
  for (const Finding& f : findings) {
    EXPECT_FALSE(f.symbol.empty()) << f.path << ":" << f.line << " " << f.rule;
    rules.insert(f.rule);
  }
  for (const std::string& rule : kTokenRules) {
    EXPECT_EQ(rules.count(rule), 1u) << rule;
  }
  ExpectBaselineRoundTrip(findings, "mmmsa_token_baseline.txt");
}

TEST(MmmsaBaseline, MissingBaselineFileIsAnError) {
  std::vector<Finding> findings;
  std::string error;
  EXPECT_FALSE(
      ApplyBaseline("/nonexistent/mmmsa_baseline.txt", &findings, &error));
  EXPECT_FALSE(error.empty());
}

TEST(MmmsaEffectivePath, StripsFixturePrefixes) {
  EXPECT_EQ(EffectivePath("tests/sa_fixtures/lock_cycle/bad/src/lc/locks.h"),
            "src/lc/locks.h");
  EXPECT_EQ(EffectivePath("/root/repo/src/cas/cas_store.cc"),
            "src/cas/cas_store.cc");
  EXPECT_EQ(EffectivePath("tools/mmmsa/analysis.cc"), "tools/mmmsa/analysis.cc");
  EXPECT_EQ(EffectivePath("no/marker/here.cc"), "no/marker/here.cc");
}

// ---------------------------------------------------------------------------
// Self-check: the real tree is finding-free modulo the checked-in baseline
// under every check. This is the same gate the CI job applies; a regression
// here means new code broke an invariant (or a check grew a false positive —
// both block the merge on purpose).

TEST(MmmsaSelfCheck, RealTreeIsCleanModuloBaseline) {
  std::vector<std::string> io_errors;
  std::vector<Finding> findings =
      AnalyzePaths({std::string(MMM_SOURCE_ROOT) + "/src",
                    std::string(MMM_SOURCE_ROOT) + "/tools",
                    std::string(MMM_SOURCE_ROOT) + "/bench"},
                   SaOptions{}, &io_errors);
  EXPECT_TRUE(io_errors.empty());
  std::string error;
  ASSERT_TRUE(ApplyBaseline(
      std::string(MMM_SOURCE_ROOT) + "/tools/mmmsa/baseline.txt", &findings,
      &error))
      << error;
  EXPECT_TRUE(findings.empty()) << FormatText(findings);
}

}  // namespace
}  // namespace mmmsa
