// The update-script subsystem: the action grammar's move/rename
// extensions and the script compiler (comments, `let` bindings, one-line
// file:line diagnostics).

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/labeled_document.h"
#include "store/document_store.h"
#include "store/file.h"
#include "updates/script.h"
#include "updates/update.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xmlup::updates {
namespace {

using core::LabeledDocument;
using store::DocumentStore;
using store::MemFileSystem;
using store::StoreOptions;

xml::Tree ParseOrDie(std::string_view text) {
  auto tree = xml::ParseDocument(text);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  return std::move(*tree);
}

std::string Serialize(const LabeledDocument& doc) {
  auto text = xml::SerializeDocument(doc.tree());
  EXPECT_TRUE(text.ok());
  return *text;
}

// A store over a MemFileSystem, for exercising apply semantics. The fs
// must outlive the store.
std::unique_ptr<DocumentStore> MakeStore(MemFileSystem* fs,
                                         std::string_view xml) {
  StoreOptions options;
  options.fs = fs;
  auto created = DocumentStore::Create("db", ParseOrDie(xml), "dewey",
                                       options);
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  return std::move(*created);
}

common::Status Apply(DocumentStore* store, std::vector<std::string> tokens,
                     size_t* matched = nullptr) {
  auto requests = ParseActionTokens(tokens);
  if (!requests.ok()) return requests.status();
  size_t total = 0;
  for (const UpdateRequest& request : *requests) {
    size_t step = 0;
    common::Status status = ApplyUpdate(store, request, &step);
    if (!status.ok()) return status;
    total += step;
  }
  if (matched != nullptr) *matched = total;
  return common::Status::Ok();
}

// --- Action grammar: move/rename ------------------------------------------

TEST(ActionGrammarTest, MoveAndRenameTokensParse) {
  auto actions = ParseActionTokens(
      {"-m", "/a/x", "/b", "--move", "/c", "/d", "-r", "/e", "-v", "f",
       "--rename", "/g", "-v", "h"});
  ASSERT_TRUE(actions.ok()) << actions.status().ToString();
  ASSERT_EQ(actions->size(), 4u);
  EXPECT_EQ((*actions)[0].op, UpdateRequest::Op::kMove);
  EXPECT_EQ((*actions)[0].xpath, "/a/x");
  EXPECT_EQ((*actions)[0].xpath2, "/b");
  EXPECT_EQ((*actions)[1].op, UpdateRequest::Op::kMove);
  EXPECT_EQ((*actions)[2].op, UpdateRequest::Op::kRename);
  EXPECT_EQ((*actions)[2].value, "f");
  EXPECT_EQ((*actions)[3].op, UpdateRequest::Op::kRename);
  EXPECT_EQ((*actions)[3].value, "h");
}

TEST(ActionGrammarTest, MoveNeedsTwoOperands) {
  auto missing = ParseActionTokens({"-m", "/a"});
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.status().message().find("\"-m\""), std::string::npos)
      << missing.status().ToString();
}

TEST(ActionGrammarTest, RenameNeedsAValue) {
  auto missing = ParseActionTokens({"-r", "/a"});
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.status().message().find("-v <new-name>"),
            std::string::npos)
      << missing.status().ToString();
}

TEST(ActionGrammarTest, DiagnosticsQuoteTheOffendingToken) {
  // The one-line spec-quoting contract shared by ed, apply and serve.
  auto unknown = ParseActionTokens({"-z"});
  ASSERT_FALSE(unknown.ok());
  const std::string message = unknown.status().ToString();
  EXPECT_EQ(message.find('\n'), std::string::npos) << message;
  EXPECT_NE(message.find("\"-z\""), std::string::npos) << message;
}

// --- Move / rename apply semantics ----------------------------------------

TEST(MoveRenameTest, MoveRelocatesSubtreeUnderDestination) {
  MemFileSystem fs;
  auto store = MakeStore(&fs, "<r><a><x><y/></x></a><b><k/></b></r>");
  size_t matched = 0;
  ASSERT_TRUE(Apply(store.get(), {"-m", "/a/x", "/b"}, &matched).ok());
  EXPECT_EQ(matched, 1u);
  // The moved subtree appends as the destination's last child.
  EXPECT_EQ(Serialize(store->document()),
            "<r><a/><b><k/><x><y/></x></b></r>");
}

TEST(MoveRenameTest, MoveIsDurableAcrossReopen) {
  MemFileSystem fs;
  StoreOptions options;
  options.fs = &fs;
  {
    auto store = MakeStore(&fs, "<r><a><x/></a><b/></r>");
    ASSERT_TRUE(Apply(store.get(), {"-m", "/a/x", "/b"}).ok());
  }
  auto reopened = DocumentStore::Open("db", options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(Serialize((*reopened)->document()), "<r><a/><b><x/></b></r>");
}

TEST(MoveRenameTest, MoveIntoOwnSubtreeRejectedBeforeAnyMutation) {
  MemFileSystem fs;
  auto store = MakeStore(&fs, "<r><a><x/></a></r>");
  const std::string before = Serialize(store->document());
  EXPECT_FALSE(Apply(store.get(), {"-m", "/a", "/a/x"}).ok());
  EXPECT_FALSE(Apply(store.get(), {"-m", ".", "/a"}).ok());  // root source
  EXPECT_EQ(Serialize(store->document()), before);
}

TEST(MoveRenameTest, NestedMoveSourcesAreSkippedLikeNestedDeletes) {
  MemFileSystem fs;
  auto store = MakeStore(&fs, "<r><a><m><m/></m></a><b/></r>");
  // //m matches the outer node and its nested child. The outer move
  // carries the inner one along; by the time the inner source comes up
  // it is dead and must be skipped, not moved a second time.
  size_t matched = 0;
  ASSERT_TRUE(Apply(store.get(), {"-m", "//m", "/b"}, &matched).ok());
  EXPECT_EQ(matched, 2u);
  EXPECT_EQ(Serialize(store->document()), "<r><a/><b><m><m/></m></b></r>");
}

TEST(MoveRenameTest, RenameKeepsChildrenAndPosition) {
  MemFileSystem fs;
  auto store = MakeStore(&fs, "<r><a><x/></a><b/></r>");
  size_t matched = 0;
  ASSERT_TRUE(Apply(store.get(), {"-r", "/a", "-v", "z"}, &matched).ok());
  EXPECT_EQ(matched, 1u);
  EXPECT_EQ(Serialize(store->document()), "<r><z><x/></z><b/></r>");
}

TEST(MoveRenameTest, RenameNestedMatchesRenamesBoth) {
  MemFileSystem fs;
  auto store = MakeStore(&fs, "<r><a><a/></a></r>");
  size_t matched = 0;
  ASSERT_TRUE(Apply(store.get(), {"-r", "//a", "-v", "z"}, &matched).ok());
  EXPECT_EQ(matched, 2u);
  EXPECT_EQ(Serialize(store->document()), "<r><z><z/></z></r>");
}

TEST(MoveRenameTest, RenameRejectsRootAndNonNamedNodes) {
  MemFileSystem fs;
  auto store = MakeStore(&fs, "<r><a>text</a></r>");
  const std::string before = Serialize(store->document());
  EXPECT_FALSE(Apply(store.get(), {"-r", ".", "-v", "z"}).ok());
  EXPECT_FALSE(Apply(store.get(), {"-r", "/a/text()", "-v", "z"}).ok());
  EXPECT_EQ(Serialize(store->document()), before);
}

// --- Script compiler -------------------------------------------------------

TEST(UpdateScriptTest, CompilesCommentsLetsAndQuotedTokens) {
  auto script = ParseUpdateScript(
      "# build a greeting\n"
      "let who = world\n"
      "let msg = \"hello ${who}\"\n"
      "\n"
      "-s . -t elem -n greeting -v \"${msg}\"\n"
      "-u /greeting -v ${who} -d /old\n",
      "test.up");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  ASSERT_EQ(script->requests.size(), 3u);
  EXPECT_EQ(script->requests[0].op, UpdateRequest::Op::kInsertChild);
  EXPECT_EQ(script->requests[0].value, "hello world");
  EXPECT_EQ(script->requests[1].op, UpdateRequest::Op::kSetValue);
  EXPECT_EQ(script->requests[1].value, "world");
  EXPECT_EQ(script->requests[2].op, UpdateRequest::Op::kDelete);
}

TEST(UpdateScriptTest, DiagnosticsCarryOriginLineAndQuotedToken) {
  auto script = ParseUpdateScript(
      "# fine\n"
      "-s . -t elem -n ok\n"
      "-z /nope\n",
      "broken.up");
  ASSERT_FALSE(script.ok());
  const std::string message = script.status().ToString();
  EXPECT_EQ(message.find('\n'), std::string::npos) << message;
  EXPECT_NE(message.find("broken.up:3:"), std::string::npos) << message;
  EXPECT_NE(message.find("\"-z\""), std::string::npos) << message;
}

TEST(UpdateScriptTest, UndefinedAndUnterminatedReferencesRejected) {
  auto undefined = ParseUpdateScript("-d ${nope}\n", "s");
  ASSERT_FALSE(undefined.ok());
  EXPECT_NE(undefined.status().ToString().find("\"${nope}\""),
            std::string::npos)
      << undefined.status().ToString();
  auto unterminated = ParseUpdateScript("let a = 1\n-d ${a\n", "s");
  ASSERT_FALSE(unterminated.ok());
  EXPECT_NE(unterminated.status().ToString().find("s:2:"), std::string::npos)
      << unterminated.status().ToString();
}

TEST(UpdateScriptTest, LetsChainInDefinitionOrder) {
  auto script = ParseUpdateScript(
      "let base = /inventory\n"
      "let shelf = ${base}/shelf\n"
      "-d ${shelf}/book\n",
      "s");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  ASSERT_EQ(script->requests.size(), 1u);
  EXPECT_EQ(script->requests[0].xpath, "/inventory/shelf/book");
}

TEST(UpdateScriptTest, EmptyScriptCompilesToNoRequests) {
  auto script = ParseUpdateScript("# nothing\n\nlet unused = 1\n", "s");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  EXPECT_TRUE(script->requests.empty());
}

}  // namespace
}  // namespace xmlup::updates
