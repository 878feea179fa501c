// ccm-lint engine tests: every rule must catch its seeded violation, the
// taint machinery must see through aliases / containers-of / auto bindings,
// and both suppression mechanisms (file entries and inline allows) must work.
#include "lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace {

using ccmlint::Finding;
using ccmlint::lint;
using ccmlint::parse_suppressions;
using ccmlint::Result;
using ccmlint::SourceFile;
using ccmlint::strip_code;
using ccmlint::Suppression;

Result lint_one(const std::string& path, const std::string& content) {
  std::vector<Suppression> none;
  return lint({{path, content}}, none);
}

std::vector<const Finding*> findings_for_rule(const Result& r,
                                              const std::string& rule) {
  std::vector<const Finding*> out;
  for (const auto& f : r.findings) {
    if (f.rule == rule) out.push_back(&f);
  }
  return out;
}

// ----------------------------------------------------------- strip_code ---

TEST(StripCode, RemovesCommentsAndStringsPreservingLines) {
  const std::string src =
      "int a; // rand() in comment\n"
      "const char* s = \"rand() in string\";\n"
      "/* rand() in\n"
      "   block comment */ int b;\n";
  const std::string out = strip_code(src);
  EXPECT_EQ(out.find("rand"), std::string::npos);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'),
            std::count(src.begin(), src.end(), '\n'));
  EXPECT_NE(out.find("int a;"), std::string::npos);
  EXPECT_NE(out.find("int b;"), std::string::npos);
}

TEST(StripCode, HandlesRawStringsAndCharLiterals) {
  const std::string src =
      "auto r = R\"(time() \" still a string)\";\n"
      "char c = ':'; int after = 1;\n";
  const std::string out = strip_code(src);
  EXPECT_EQ(out.find("time"), std::string::npos);
  EXPECT_NE(out.find("int after = 1;"), std::string::npos);
}

// -------------------------------------------------------- unordered-iter ---

TEST(LintRules, CatchesRangeForOverUnorderedMember) {
  const auto r = lint_one("src/x.cpp",
                          "#include <unordered_map>\n"
                          "std::unordered_map<int, int> counts_;\n"
                          "int sum() {\n"
                          "  int s = 0;\n"
                          "  for (const auto& [k, v] : counts_) s += v;\n"
                          "  return s;\n"
                          "}\n");
  const auto hits = findings_for_rule(r, "unordered-iter");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0]->line, 5u);
  EXPECT_EQ(hits[0]->token, "counts_");
}

TEST(LintRules, CatchesIterationThroughAliasAndContainerOf) {
  // Mirrors ccm/cluster.hpp: using Store = unordered_map, vector<Store>,
  // auto& binding — the taint must survive all three hops.
  const auto r = lint_one("src/x.cpp",
                          "using Store = std::unordered_map<int, int>;\n"
                          "std::vector<Store> stores_;\n"
                          "void f(int n) {\n"
                          "  auto& store = stores_[n];\n"
                          "  for (const auto& [k, v] : store) {}\n"
                          "}\n");
  const auto hits = findings_for_rule(r, "unordered-iter");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0]->line, 5u);
  EXPECT_EQ(hits[0]->token, "store");
}

TEST(LintRules, CatchesExplicitBeginWalk) {
  const auto r = lint_one("src/x.cpp",
                          "std::unordered_set<int> seen_;\n"
                          "int f() { return *seen_.begin(); }\n");
  const auto hits = findings_for_rule(r, "unordered-iter");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0]->token, "seen_");
}

TEST(LintRules, CatchesIterationOverBlockTable) {
  // cache::BlockTable iterates in slot-array (hash) order, like the std
  // unordered containers: a range-for over a member and a .begin() walk
  // through an annotated alias member (the runtime's shard Store) trip.
  const auto r = lint_one(
      "src/x.cpp",
      "coop::cache::BlockTable<int> owners_;\n"
      "using Store = cache::BlockTable<BlockPtr>;\n"
      "Store store GUARDED_BY(mu);\n"
      "int sum() {\n"
      "  int s = 0;\n"
      "  for (const auto& [b, v] : owners_) s += v;\n"
      "  return s + (store.begin() == store.end());\n"
      "}\n");
  const auto hits = findings_for_rule(r, "unordered-iter");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0]->line, 6u);
  EXPECT_EQ(hits[0]->token, "owners_");
  EXPECT_EQ(hits[1]->line, 7u);
  EXPECT_EQ(hits[1]->token, "store");
}

TEST(LintRules, HeaderMemberTaintsIterationInOtherFile) {
  std::vector<Suppression> none;
  const auto r = lint(
      {{"src/cache/thing.hpp", "std::unordered_map<int, int> index_;\n"},
       {"src/cache/thing.cpp", "void f() { for (auto& [k, v] : index_) {} }\n"}},
      none);
  ASSERT_EQ(findings_for_rule(r, "unordered-iter").size(), 1u);
  EXPECT_EQ(r.findings[0].path, "src/cache/thing.cpp");
}

TEST(LintRules, CppLocalsDoNotTaintOtherFiles) {
  // A test-local `r` in one file must not flag iteration over an ordinary
  // struct named `r` elsewhere (this was a real false-positive class).
  std::vector<Suppression> none;
  const auto r = lint(
      {{"tests/a.cpp", "void f() { std::unordered_map<int, int> m; }\n"},
       {"tests/b.cpp",
        "struct R { std::vector<int> v; };\n"
        "void g() { R m; for (int x : m.v) {} }\n"}},
      none);
  EXPECT_TRUE(findings_for_rule(r, "unordered-iter").empty());
}

TEST(LintRules, FunctionReturningUnorderedTaintsItsResults) {
  // A helper returning an unordered map *by value* taints the helper's name:
  // both an auto binding of the result and direct iteration over a call
  // expression are unordered walks.
  std::vector<Suppression> none;
  const auto r = lint(
      {{"src/cache/helpers.hpp",
        "std::unordered_map<int, int> make_index();\n"},
       {"src/cache/user.cpp",
        "void f() {\n"
        "  auto idx = make_index();\n"
        "  for (auto& [k, v] : idx) {}\n"
        "}\n"
        "void g() { for (auto& [k, v] : make_index()) {} }\n"}},
      none);
  const auto hits = findings_for_rule(r, "unordered-iter");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0]->token, "idx");
  EXPECT_EQ(hits[1]->token, "make_index");
}

TEST(LintRules, FunctionReturningOrderedStaysClean) {
  std::vector<Suppression> none;
  const auto r = lint(
      {{"src/cache/helpers.hpp", "std::map<int, int> make_index();\n"},
       {"src/cache/user.cpp",
        "void f() { auto idx = make_index(); for (auto& [k, v] : idx) {} }\n"}},
      none);
  EXPECT_TRUE(findings_for_rule(r, "unordered-iter").empty());
}

TEST(LintRules, OrderedContainersAreClean) {
  const auto r = lint_one("src/x.cpp",
                          "std::map<int, int> counts_;\n"
                          "void f() { for (auto& [k, v] : counts_) {} }\n");
  EXPECT_TRUE(findings_for_rule(r, "unordered-iter").empty());
}

// ------------------------------------------------------------ raw-random ---

TEST(LintRules, CatchesRawRandAndStdEngines) {
  const auto r = lint_one("src/x.cpp",
                          "int f() { return rand() % 6; }\n"
                          "std::mt19937 gen_;\n");
  const auto hits = findings_for_rule(r, "raw-random");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0]->token, "rand");
  EXPECT_EQ(hits[1]->token, "mt19937");
}

TEST(LintRules, RngModuleIsExemptAndMembersDontTrip) {
  // src/sim/random.* implements the sanctioned Rng — exempt. A member
  // *call* named rand (rng.rand()) is not the libc symbol.
  const auto exempt =
      lint_one("src/sim/random.cpp", "int f() { return rand(); }\n");
  EXPECT_TRUE(findings_for_rule(exempt, "raw-random").empty());
  const auto member =
      lint_one("src/x.cpp", "int f(Rng& rng) { return rng.rand(); }\n");
  EXPECT_TRUE(findings_for_rule(member, "raw-random").empty());
}

// ------------------------------------------------------------ wall-clock ---

TEST(LintRules, CatchesClockReads) {
  const auto r = lint_one(
      "src/x.cpp",
      "auto t0 = std::chrono::steady_clock::now();\n"
      "long stamp() { return time(nullptr); }\n");
  const auto hits = findings_for_rule(r, "wall-clock");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0]->token, "steady_clock");
  EXPECT_EQ(hits[1]->token, "time");
}

TEST(LintRules, SimTimeMethodsAreNotWallClock) {
  const auto r = lint_one("src/x.cpp",
                          "double f(const Engine& e) { return e.time(); }\n");
  EXPECT_TRUE(findings_for_rule(r, "wall-clock").empty());
}

// ---------------------------------------------------- fp-accum-unordered ---

TEST(LintRules, CatchesFloatAccumulationInUnorderedLoop) {
  const auto r = lint_one("src/x.cpp",
                          "std::unordered_map<int, double> weights_;\n"
                          "double total() {\n"
                          "  double sum = 0.0;\n"
                          "  for (const auto& [k, w] : weights_) {\n"
                          "    sum += w;\n"
                          "  }\n"
                          "  return sum;\n"
                          "}\n");
  const auto hits = findings_for_rule(r, "fp-accum-unordered");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0]->line, 5u);
  EXPECT_EQ(hits[0]->token, "sum");
}

TEST(LintRules, IntegerAccumulationInUnorderedLoopOnlyFlagsIteration) {
  // Integer sums are order-independent: unordered-iter still fires (the
  // loop may feed ordered output) but fp-accum must not.
  const auto r = lint_one("src/x.cpp",
                          "std::unordered_map<int, int> counts_;\n"
                          "int total() {\n"
                          "  int sum = 0;\n"
                          "  for (const auto& [k, v] : counts_) sum += v;\n"
                          "  return sum;\n"
                          "}\n");
  EXPECT_TRUE(findings_for_rule(r, "fp-accum-unordered").empty());
  EXPECT_EQ(findings_for_rule(r, "unordered-iter").size(), 1u);
}

// ---------------------------------------------------------- cout-library ---

TEST(LintRules, CatchesCoutInLibraryButNotInToolsOrTests) {
  const auto lib =
      lint_one("src/cache/lru.cpp", "void f() { std::cout << 1; }\n");
  ASSERT_EQ(findings_for_rule(lib, "cout-library").size(), 1u);
  const auto tool =
      lint_one("tools/lint/main.cpp", "void f() { std::cout << 1; }\n");
  EXPECT_TRUE(findings_for_rule(tool, "cout-library").empty());
  const auto test =
      lint_one("tests/t.cpp", "void f() { std::cout << 1; }\n");
  EXPECT_TRUE(findings_for_rule(test, "cout-library").empty());
}

// ------------------------------------------------------ cout-library fix ---

TEST(Fixer, RewritesCoutToReportSinkAndInsertsInclude) {
  const std::string src =
      "#include <iostream>\n"
      "void f(int x) { std::cout << x; }\n"
      "void g(int y) { cout << y; }\n";
  const auto r = lint_one("src/x.cpp", src);
  const auto fr = ccmlint::fix_cout_library({"src/x.cpp", src}, r.findings);
  EXPECT_EQ(fr.rewrites, 2u);
  EXPECT_EQ(fr.unfixable, 0u);
  EXPECT_NE(fr.content.find("#include \"util/report_sink.hpp\""),
            std::string::npos);
  EXPECT_NE(fr.content.find("void f(int x) { coop::util::report_out() << x; }"),
            std::string::npos);
  EXPECT_NE(fr.content.find("void g(int y) { coop::util::report_out() << y; }"),
            std::string::npos);
  EXPECT_EQ(fr.content.find("cout"), std::string::npos);
}

TEST(Fixer, FixedContentLintsCleanAndRefixIsNoOp) {
  const std::string src =
      "#include <iostream>\n"
      "void f(int x) { std::cout << x; }\n";
  const auto r1 = lint_one("src/x.cpp", src);
  const auto fix1 = ccmlint::fix_cout_library({"src/x.cpp", src}, r1.findings);
  ASSERT_EQ(fix1.rewrites, 1u);
  const auto r2 = lint_one("src/x.cpp", fix1.content);
  EXPECT_TRUE(findings_for_rule(r2, "cout-library").empty());
  const auto fix2 =
      ccmlint::fix_cout_library({"src/x.cpp", fix1.content}, r2.findings);
  EXPECT_EQ(fix2.rewrites, 0u);
  EXPECT_EQ(fix2.content, fix1.content);
}

TEST(Fixer, PrintfAndUsingDeclarationAreReportedUnfixable) {
  const std::string src =
      "#include <cstdio>\n"
      "using std::cout;\n"
      "void f() { printf(\"x\"); }\n"
      "void g() { cout << 1; }\n";
  const auto r = lint_one("src/x.cpp", src);
  const auto fr = ccmlint::fix_cout_library({"src/x.cpp", src}, r.findings);
  // The using-declaration and printf stay; the bare `cout <<` use is fixed.
  EXPECT_EQ(fr.rewrites, 1u);
  EXPECT_EQ(fr.unfixable, 2u);
  EXPECT_NE(fr.content.find("using std::cout;"), std::string::npos);
  EXPECT_NE(fr.content.find("printf(\"x\");"), std::string::npos);
  EXPECT_NE(fr.content.find("coop::util::report_out() << 1;"),
            std::string::npos);
}

TEST(Fixer, SuppressedFindingsAreNotRewritten) {
  std::vector<std::string> errors;
  auto supp = parse_suppressions(
      "src/x.cpp cout-library cout  # audited output sink\n", errors);
  ASSERT_TRUE(errors.empty());
  const std::string src = "void f() { std::cout << 1; }\n";
  const auto r = lint({{"src/x.cpp", src}}, supp);
  const auto fr = ccmlint::fix_cout_library({"src/x.cpp", src}, r.findings);
  EXPECT_EQ(fr.rewrites, 0u);
  EXPECT_EQ(fr.content, src);
}

// --------------------------------------------------- blocking-under-lock ---

TEST(LintRules, CatchesMailboxWaitUnderLockGuard) {
  const auto r = lint_one("src/ccm/x.cpp",
                          "void f() {\n"
                          "  std::scoped_lock lock(mu_);\n"
                          "  box_.send(item);\n"
                          "}\n");
  const auto hits = findings_for_rule(r, "blocking-under-lock");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0]->line, 3u);
  EXPECT_EQ(hits[0]->token, "send");
}

TEST(LintRules, CatchesRpcSleepAndStorageIoUnderGuard) {
  const auto r = lint_one(
      "src/ccm/x.cpp",
      "void f() {\n"
      "  util::UniqueLock lock(sh.mu);\n"
      "  rpc(msg);\n"
      "  std::this_thread::sleep_for(d);\n"
      "  storage_->read(file, off, out);\n"
      "}\n");
  const auto hits = findings_for_rule(r, "blocking-under-lock");
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0]->token, "rpc");
  EXPECT_EQ(hits[1]->token, "sleep_for");
  EXPECT_EQ(hits[2]->token, "read");
}

TEST(LintRules, CatchesRoundCallUnderGuard) {
  const auto r = lint_one("src/net/x.cpp",
                          "void f() {\n"
                          "  util::ScopedLock lock(mu_);\n"
                          "  transport_->call_all(calls);\n"
                          "}\n");
  const auto hits = findings_for_rule(r, "blocking-under-lock");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0]->line, 3u);
  EXPECT_EQ(hits[0]->token, "call_all");
}

TEST(LintRules, CatchesRpcRoundUnderGuard) {
  const auto r = lint_one("src/ccm/x.cpp",
                          "void f() {\n"
                          "  util::UniqueLock lock(sh.mu);\n"
                          "  rpc_all(calls);\n"
                          "}\n");
  const auto hits = findings_for_rule(r, "blocking-under-lock");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0]->line, 3u);
  EXPECT_EQ(hits[0]->token, "rpc_all");
}

TEST(LintRules, UnlockSuspendsTheGuardScopeUntilRelock) {
  // The make_room_locked hand-off: rpc between unlock() and lock() is the
  // sanctioned pattern; the same call after re-acquisition is a finding.
  const auto r = lint_one("src/ccm/x.cpp",
                          "void f() {\n"
                          "  util::UniqueLock lock(sh.mu);\n"
                          "  lock.unlock();\n"
                          "  rpc(msg);\n"
                          "  lock.lock();\n"
                          "  rpc(again);\n"
                          "}\n");
  const auto hits = findings_for_rule(r, "blocking-under-lock");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0]->line, 6u);
}

TEST(LintRules, BlockingOutsideGuardScopeAndReferenceParamsAreClean) {
  // The wait after the guard's enclosing block, and a guard *reference*
  // parameter (no construction), must not open a scope.
  const auto r = lint_one(
      "src/ccm/x.cpp",
      "void f(util::UniqueLock<util::CountingMutex>& lock) { rpc(msg); }\n"
      "void g() {\n"
      "  { std::scoped_lock lock(mu_); ++count_; }\n"
      "  box_.receive();\n"
      "}\n");
  EXPECT_TRUE(findings_for_rule(r, "blocking-under-lock").empty());
}

TEST(LintRules, BlockingUnderLockOnlyAppliesToSrc) {
  const auto r = lint_one("tests/t.cpp",
                          "void f() {\n"
                          "  std::scoped_lock lock(mu_);\n"
                          "  box_.send(item);\n"
                          "}\n");
  EXPECT_TRUE(findings_for_rule(r, "blocking-under-lock").empty());
}

TEST(LintRules, BlockingUnderLockHonorsInlineAllowAndSuppressions) {
  const auto inline_allowed = lint_one(
      "src/ccm/x.cpp",
      "void f() {\n"
      "  std::scoped_lock lock(mu_);\n"
      "  box_.send(item);  // ccm-lint: allow(blocking-under-lock)\n"
      "}\n");
  EXPECT_TRUE(
      findings_for_rule(inline_allowed, "blocking-under-lock").empty());

  std::vector<std::string> errors;
  auto supp = parse_suppressions(
      "src/ccm/x.cpp blocking-under-lock send  # audited hand-off\n", errors);
  ASSERT_TRUE(errors.empty());
  const auto r = lint({{"src/ccm/x.cpp",
                        "void f() {\n"
                        "  std::scoped_lock lock(mu_);\n"
                        "  box_.send(item);\n"
                        "}\n"}},
                      supp);
  EXPECT_EQ(r.unsuppressed, 0u);
  EXPECT_EQ(r.suppressed, 1u);
  EXPECT_EQ(supp[0].uses, 1u);
}

// -------------------------------------------------------------- raw-mutex ---

TEST(LintRules, CatchesRawStdMutexInRuntimeLayers) {
  const auto ccm = lint_one("src/ccm/x.hpp", "std::mutex mu_;\n");
  ASSERT_EQ(findings_for_rule(ccm, "raw-mutex").size(), 1u);
  EXPECT_EQ(findings_for_rule(ccm, "raw-mutex")[0]->token, "mutex");
  const auto net =
      lint_one("src/net/x.hpp", "mutable std::shared_mutex table_mu_;\n");
  ASSERT_EQ(findings_for_rule(net, "raw-mutex").size(), 1u);
  EXPECT_EQ(findings_for_rule(net, "raw-mutex")[0]->token, "shared_mutex");
}

TEST(LintRules, RawMutexIgnoresOtherLayersIncludesAndWrappers) {
  // Outside src/ccm and src/net the rule is silent; `#include <mutex>` has
  // no std:: qualifier; the annotated wrappers never spell std::mutex.
  const auto util = lint_one("src/util/x.hpp", "std::mutex mu_;\n");
  EXPECT_TRUE(findings_for_rule(util, "raw-mutex").empty());
  const auto inc = lint_one("src/ccm/x.hpp", "#include <mutex>\n");
  EXPECT_TRUE(findings_for_rule(inc, "raw-mutex").empty());
  const auto wrapped =
      lint_one("src/ccm/x.hpp", "mutable util::Mutex mu_{\"ccm.x\"};\n");
  EXPECT_TRUE(findings_for_rule(wrapped, "raw-mutex").empty());
}

TEST(LintRules, RawMutexHonorsInlineAllow) {
  const auto r = lint_one(
      "src/net/envelope2.hpp",
      "std::mutex m;  // ccm-lint: allow(raw-mutex)\n");
  EXPECT_TRUE(findings_for_rule(r, "raw-mutex").empty());
}

// ---------------------------------------------------------- suppressions ---

TEST(Suppressions, FileEntryMatchesAndCountsUses) {
  std::vector<std::string> errors;
  auto supp = parse_suppressions(
      "# comment line\n"
      "\n"
      "src/x.cpp cout-library cout  # audited output sink\n",
      errors);
  ASSERT_TRUE(errors.empty());
  ASSERT_EQ(supp.size(), 1u);
  const auto r = lint({{"src/x.cpp", "void f() { std::cout << 1; }\n"}}, supp);
  EXPECT_EQ(r.unsuppressed, 0u);
  EXPECT_EQ(r.suppressed, 1u);
  EXPECT_EQ(supp[0].uses, 1u);
}

TEST(Suppressions, MissingJustificationIsAnError) {
  std::vector<std::string> errors;
  parse_suppressions("src/x.cpp cout-library cout\n", errors);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("justification"), std::string::npos);
}

TEST(Suppressions, WildcardTokenAndUnusedEntries) {
  std::vector<std::string> errors;
  auto supp = parse_suppressions(
      "src/x.cpp wall-clock *  # demo timing\n"
      "src/never.cpp raw-random rand  # stale entry\n",
      errors);
  ASSERT_TRUE(errors.empty());
  const auto r = lint(
      {{"src/x.cpp", "auto t = std::chrono::steady_clock::now();\n"}}, supp);
  EXPECT_EQ(r.unsuppressed, 0u);
  EXPECT_EQ(supp[0].uses, 1u);
  EXPECT_EQ(supp[1].uses, 0u);  // caller reports stale entries
}

TEST(Suppressions, InlineAllowSilencesOnlyThatLineAndRule) {
  const auto r = lint_one(
      "src/x.cpp",
      "std::unordered_map<int, int> a_;\n"
      "std::unordered_map<int, int> b_;\n"
      "void f() {\n"
      "  for (auto& [k, v] : a_) {}  // ccm-lint: allow(unordered-iter)\n"
      "  for (auto& [k, v] : b_) {}\n"
      "}\n");
  const auto hits = findings_for_rule(r, "unordered-iter");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0]->line, 5u);
  EXPECT_EQ(hits[0]->token, "b_");
}

TEST(LintRules, RuleIdsStable) {
  const auto& ids = ccmlint::rule_ids();
  EXPECT_EQ(ids.size(), 7u);
  EXPECT_NE(std::find(ids.begin(), ids.end(), "unordered-iter"), ids.end());
  EXPECT_NE(std::find(ids.begin(), ids.end(), "fp-accum-unordered"),
            ids.end());
  EXPECT_NE(std::find(ids.begin(), ids.end(), "blocking-under-lock"),
            ids.end());
  EXPECT_NE(std::find(ids.begin(), ids.end(), "raw-mutex"), ids.end());
}

}  // namespace
