// Golden tests for mmmlint: every rule has a positive fixture that must
// produce findings and a suppressed twin that must lint clean. The fixtures
// live under tests/lint_fixtures/ (path injected as MMM_LINT_FIXTURES) and
// are linted, never compiled, so they can forward-declare freely.
#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "tools/mmmlint/lint.h"

namespace {

using mmmlint::Finding;
using mmmlint::LintOptions;
using mmmlint::LintPaths;

std::string FixtureDir(const std::string& name) {
  return std::string(MMM_LINT_FIXTURES) + "/" + name;
}

std::vector<Finding> LintFixture(const std::string& name,
                                 const std::vector<std::string>& rules = {}) {
  LintOptions options;
  options.only_rules = rules;
  return LintPaths({FixtureDir(name)}, options);
}

std::set<std::string> RulesIn(const std::vector<Finding>& findings) {
  std::set<std::string> rules;
  for (const Finding& f : findings) rules.insert(f.rule);
  return rules;
}

bool HasFinding(const std::vector<Finding>& findings, const std::string& rule,
                const std::string& file_suffix, int line) {
  return std::any_of(findings.begin(), findings.end(), [&](const Finding& f) {
    return f.rule == rule && f.line == line &&
           f.file.size() >= file_suffix.size() &&
           f.file.compare(f.file.size() - file_suffix.size(),
                          file_suffix.size(), file_suffix) == 0;
  });
}

TEST(MmmlintRules, CatalogIsStable) {
  std::vector<std::string> rules = mmmlint::RuleNames();
  std::set<std::string> have(rules.begin(), rules.end());
  for (const char* rule :
       {"banned-random", "discarded-status", "naked-new", "naked-delete",
        "mutex-missing-guard", "raw-std-mutex", "direct-env-write",
        "direct-env-read", "direct-manager-open", "chunk-delete",
        "include-cycle"}) {
    EXPECT_TRUE(have.count(rule) != 0) << "missing rule: " << rule;
  }
}

TEST(MmmlintRules, BannedRandom) {
  std::vector<Finding> findings = LintFixture("banned_random");
  EXPECT_TRUE(HasFinding(findings, "banned-random", "bad.cc", 5));
  EXPECT_TRUE(HasFinding(findings, "banned-random", "bad.cc", 9));
  for (const Finding& f : findings) {
    EXPECT_TRUE(f.file.find("suppressed") == std::string::npos)
        << f.file << ":" << f.line << " [" << f.rule << "]";
  }
}

TEST(MmmlintRules, DiscardedStatus) {
  std::vector<Finding> findings = LintFixture("discarded_status");
  EXPECT_TRUE(HasFinding(findings, "discarded-status", "bad.cc", 12))
      << "bare-statement Commit() not flagged";
  EXPECT_TRUE(HasFinding(findings, "discarded-status", "bad.cc", 13))
      << "(void)-cast DeleteFile() not flagged";
  for (const Finding& f : findings) {
    EXPECT_TRUE(f.file.find("suppressed") == std::string::npos)
        << f.file << ":" << f.line << " [" << f.rule << "]";
  }
}

TEST(MmmlintRules, NakedNew) {
  std::vector<Finding> findings = LintFixture("naked_new");
  EXPECT_TRUE(HasFinding(findings, "naked-new", "bad.cc", 7));
  // The suppressed twin also holds a unique_ptr construction that must not
  // be flagged in the first place.
  for (const Finding& f : findings) {
    EXPECT_TRUE(f.file.find("suppressed") == std::string::npos)
        << f.file << ":" << f.line << " [" << f.rule << "]";
  }
}

TEST(MmmlintRules, NakedDelete) {
  std::vector<Finding> findings = LintFixture("naked_delete");
  EXPECT_TRUE(HasFinding(findings, "naked-delete", "bad.cc", 7));
  for (const Finding& f : findings) {
    EXPECT_TRUE(f.file.find("suppressed") == std::string::npos)
        << f.file << ":" << f.line << " [" << f.rule << "]";
  }
}

TEST(MmmlintRules, RawStdMutex) {
  // bad.h also trips mutex-missing-guard (that rule has its own fixture), so
  // filter to the rule under test.
  std::vector<Finding> findings =
      LintFixture("raw_std_mutex", {"raw-std-mutex"});
  EXPECT_TRUE(HasFinding(findings, "raw-std-mutex", "bad.h", 11));
  for (const Finding& f : findings) {
    EXPECT_TRUE(f.file.find("suppressed") == std::string::npos)
        << f.file << ":" << f.line << " [" << f.rule << "]";
  }
}

TEST(MmmlintRules, MutexMissingGuard) {
  std::vector<Finding> findings = LintFixture("mutex_missing_guard");
  EXPECT_TRUE(HasFinding(findings, "mutex-missing-guard", "bad.h", 12));
  // suppressed.h holds an annotated class (no finding to begin with) and a
  // suppressed one; neither may surface.
  for (const Finding& f : findings) {
    EXPECT_TRUE(f.file.find("suppressed") == std::string::npos)
        << f.file << ":" << f.line << " [" << f.rule << "]";
  }
}

TEST(MmmlintRules, DirectEnvWrite) {
  std::vector<Finding> findings = LintFixture("direct_env_write");
  EXPECT_TRUE(HasFinding(findings, "direct-env-write", "bad.cc", 9));
  EXPECT_TRUE(HasFinding(findings, "direct-env-write", "bad.cc", 11));
  // FileStore::Put / PutString / Append, through a pointer or a store.
  EXPECT_TRUE(HasFinding(findings, "direct-env-write", "bad.cc", 19));
  EXPECT_TRUE(HasFinding(findings, "direct-env-write", "bad.cc", 21));
  EXPECT_TRUE(HasFinding(findings, "direct-env-write", "bad.cc", 23));
  // JsonValue::Append on a local array is not a store write.
  EXPECT_FALSE(HasFinding(findings, "direct-env-write", "bad.cc", 29));
  for (const Finding& f : findings) {
    EXPECT_TRUE(f.file.find("suppressed") == std::string::npos)
        << f.file << ":" << f.line << " [" << f.rule << "]";
  }
}

TEST(MmmlintRules, DirectEnvRead) {
  std::vector<Finding> findings = LintFixture("direct_env_read");
  EXPECT_TRUE(HasFinding(findings, "direct-env-read", "bad.cc", 9));
  EXPECT_TRUE(HasFinding(findings, "direct-env-read", "bad.cc", 11));
  for (const Finding& f : findings) {
    EXPECT_TRUE(f.file.find("suppressed") == std::string::npos)
        << f.file << ":" << f.line << " [" << f.rule << "]";
  }
}

TEST(MmmlintRules, DirectManagerOpen) {
  std::vector<Finding> findings = LintFixture("direct_manager_open");
  EXPECT_TRUE(HasFinding(findings, "direct-manager-open", "bad.cc", 13));
  for (const Finding& f : findings) {
    EXPECT_TRUE(f.file.find("suppressed") == std::string::npos)
        << f.file << ":" << f.line << " [" << f.rule << "]";
  }
}

TEST(MmmlintRules, ChunkDelete) {
  std::vector<Finding> findings = LintFixture("chunk_delete");
  EXPECT_TRUE(HasFinding(findings, "chunk-delete", "bad.cc", 7))
      << "Delete(ChunkBlobName(...)) not flagged";
  EXPECT_TRUE(HasFinding(findings, "chunk-delete", "bad.cc", 9))
      << "Delete(kCasChunkPrefix + ...) not flagged";
  EXPECT_TRUE(HasFinding(findings, "chunk-delete", "bad.cc", 11))
      << "Delete(\"cas-...\") literal not flagged";
  for (const Finding& f : findings) {
    EXPECT_TRUE(f.file.find("suppressed") == std::string::npos)
        << f.file << ":" << f.line << " [" << f.rule << "]";
  }
}

TEST(MmmlintRules, ChunkDeleteExemptsCasSweeper) {
  // The real sweeper (src/cas/) deletes chunk blobs by design and must not
  // be flagged when the source tree itself is linted.
  std::vector<Finding> findings =
      LintPaths({"src/cas"}, {{"chunk-delete"}});
  // Path may not exist when the test runs outside the repo root; only assert
  // when it resolved.
  for (const Finding& f : findings) {
    EXPECT_TRUE(f.rule == "io") << f.file << ":" << f.line;
  }
}

TEST(MmmlintRules, IncludeCycle) {
  std::vector<Finding> findings = LintFixture("include_cycle/bad");
  ASSERT_FALSE(findings.empty());
  EXPECT_TRUE(RulesIn(findings).count("include-cycle") != 0);
  // The back edge lands on whichever of a.h/b.h the DFS reaches second; the
  // cycle text must name both members either way.
  EXPECT_TRUE(findings[0].message.find("a.h") != std::string::npos);
  EXPECT_TRUE(findings[0].message.find("b.h") != std::string::npos);

  EXPECT_TRUE(LintFixture("include_cycle/ok").empty())
      << "suppression on the back-edge include did not take";
}

TEST(MmmlintDriver, WholeFixtureTreeRespectsSuppressions) {
  // Linting the whole fixture tree at once must surface findings only from
  // the bad fixtures; every suppressed twin stays silent.
  std::vector<Finding> findings = LintPaths({std::string(MMM_LINT_FIXTURES)});
  EXPECT_FALSE(findings.empty());
  for (const Finding& f : findings) {
    EXPECT_TRUE(f.file.find("suppressed") == std::string::npos &&
                f.file.find("/ok/") == std::string::npos)
        << f.file << ":" << f.line << " [" << f.rule << "]";
  }
}

TEST(MmmlintDriver, RuleFilterRestrictsOutput) {
  std::vector<Finding> findings =
      LintPaths({std::string(MMM_LINT_FIXTURES)}, {{"banned-random"}});
  EXPECT_FALSE(findings.empty());
  for (const Finding& f : findings) EXPECT_EQ(f.rule, "banned-random");
}

TEST(MmmlintDriver, UnreadablePathReportsIoFinding) {
  std::vector<Finding> findings =
      LintPaths({FixtureDir("does_not_exist_anywhere")});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "io");
}

TEST(MmmlintDriver, FormattersRenderEveryFinding) {
  std::vector<Finding> findings = LintFixture("banned_random");
  ASSERT_FALSE(findings.empty());
  std::string text = mmmlint::FormatText(findings);
  std::string json = mmmlint::FormatJson(findings);
  EXPECT_TRUE(text.find("[banned-random]") != std::string::npos);
  EXPECT_TRUE(json.find("\"rule\"") != std::string::npos);
  EXPECT_EQ(static_cast<size_t>(
                std::count(text.begin(), text.end(), '\n')),
            findings.size());
}

TEST(MmmlintDriver, ListSuppressionsReportsFileRuleAndReason) {
  std::vector<mmmlint::SuppressionNote> notes =
      mmmlint::ListSuppressions({FixtureDir("direct_manager_open")});
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_NE(notes[0].file.find("suppressed.cc"), std::string::npos);
  EXPECT_EQ(notes[0].line, 8);
  EXPECT_EQ(notes[0].rule, "direct-manager-open");
  EXPECT_EQ(notes[0].reason,
            "fixture models a sanctioned standalone tool");
}

TEST(MmmlintDriver, ListSuppressionsIgnoresSyntaxDocumentation) {
  // Comments that merely describe the `MMMLINT(<rule>): ...` syntax (like
  // the header docs in tools/mmmlint) must not show up as debt.
  std::vector<mmmlint::SuppressionNote> notes =
      mmmlint::ListSuppressions({FixtureDir("banned_random")});
  for (const mmmlint::SuppressionNote& note : notes) {
    EXPECT_TRUE(note.rule == "*" ||
                note.rule.find_first_not_of(
                    "abcdefghijklmnopqrstuvwxyz0123456789-") ==
                    std::string::npos)
        << note.rule;
  }
}

}  // namespace
