// Golden-file pins for the shared JSON emission policy and every top-level
// output surface's version stamp.  These tests pin exact BYTES on purpose:
// the schema_version contract says the stamp is the first field of every
// document, and a drift here is a breaking interchange change.
#include "jsonout/jsonout.h"

#include <gtest/gtest.h>

#include "common/diagnostics.h"
#include "eval/report.h"
#include "eval/table.h"
#include "itc/family.h"
#include "pipeline/batch.h"
#include "pipeline/session.h"
#include "wordrec/identify.h"

namespace netrev::jsonout {
namespace {

TEST(Jsonout, VersionFieldIsStable) {
  EXPECT_EQ(kSchemaVersion, 1);
  EXPECT_EQ(version_field(), "\"schema_version\":1");
}

TEST(Jsonout, EscapeHandlesSpecialsAndControlBytes) {
  EXPECT_EQ(escape("plain"), "plain");
  EXPECT_EQ(escape("a\"b"), "a\\\"b");
  EXPECT_EQ(escape("a\\b"), "a\\\\b");
  EXPECT_EQ(escape("a\nb"), "a\\nb");
  EXPECT_EQ(escape("a\rb"), "a\\rb");
  EXPECT_EQ(escape("a\tb"), "a\\tb");
  EXPECT_EQ(escape(std::string("a\x01") + "b"), "a\\u0001b");
  EXPECT_EQ(escape(std::string("a\x1f") + "b"), "a\\u001fb");
}

// Net names as they appear in every report: plain identifiers pass through
// and the specials a netlist name can carry are escaped.
TEST(JsonEscape, PassesPlainText) {
  EXPECT_EQ(escape("U215"), "U215");
}

TEST(JsonEscape, EscapesSpecials) {
  EXPECT_EQ(escape("a\"b"), "a\\\"b");
  EXPECT_EQ(escape("a\\b"), "a\\\\b");
  EXPECT_EQ(escape("a\nb"), "a\\nb");
  EXPECT_EQ(escape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(Jsonout, QuoteWrapsEscaped) {
  EXPECT_EQ(quote("n\"1"), "\"n\\\"1\"");
}

TEST(Jsonout, DocumentPrependsVersionStamp) {
  EXPECT_EQ(document(""), "{\"schema_version\":1}");
  EXPECT_EQ(document("\"a\":1"), "{\"schema_version\":1,\"a\":1}");
}

// --- per-surface stamps ------------------------------------------------------
// Each surface's document must START with the version stamp, not merely
// contain it somewhere.

bool stamped(const std::string& json) {
  return json.rfind("{\"schema_version\":1,", 0) == 0;
}

TEST(SurfaceStamp, Diagnostics) {
  diag::Diagnostics diags;
  diags.warning("w");
  EXPECT_TRUE(stamped(diags.to_json())) << diags.to_json().substr(0, 60);
}

TEST(SurfaceStamp, IdentifyAndWords) {
  const auto bench = itc::build_benchmark("b03s");
  const auto result = wordrec::identify_words(bench.netlist);
  EXPECT_TRUE(stamped(eval::identify_result_to_json(bench.netlist, result)));
  EXPECT_TRUE(stamped(eval::words_to_json(bench.netlist, result.words)));
}

TEST(SurfaceStamp, EvaluateDocComposition) {
  const std::string doc = eval::evaluate_doc_to_json("{\"x\":1}", "{\"y\":2}");
  EXPECT_EQ(doc,
            "{\"schema_version\":1,\"evaluation\":{\"x\":1},"
            "\"analysis\":{\"y\":2}}");
}

TEST(SurfaceStamp, TableRows) {
  eval::Table1Row row;
  row.benchmark = "b03s";
  const std::string json = eval::table_to_json({&row, 1});
  EXPECT_TRUE(stamped(json)) << json.substr(0, 60);
  EXPECT_NE(json.find("\"rows\":[{"), std::string::npos);
}

TEST(SurfaceStamp, BatchResult) {
  const auto result = pipeline::run_batch({"b03s"});
  EXPECT_TRUE(stamped(result.to_json())) << result.to_json().substr(0, 60);
}

TEST(SurfaceStamp, LiftDocument) {
  Session session;
  const LoadedDesign design = session.load_netlist("b03s");
  const std::string json = session.lift_json(design);
  EXPECT_TRUE(stamped(json)) << json.substr(0, 60);
}

}  // namespace
}  // namespace netrev::jsonout
