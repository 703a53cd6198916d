#include "dag/wdl.hpp"

#include <gtest/gtest.h>

#include <string>

#include "util/error.hpp"
#include "util/units.hpp"

namespace wfr::dag {
namespace {

constexpr const char* kLclsJson = R"({
  "name": "lcls",
  "tasks": [
    {"name": "a0", "kind": "analysis", "nodes": 16,
     "demand": {"external_in": "1 TB", "dram_per_node": "32 GB"}},
    {"name": "a1", "kind": "analysis", "nodes": 16,
     "demand": {"external_in": "1 TB"}},
    {"name": "merge", "depends_on": ["a0", "a1"],
     "fixed_duration": "2 min",
     "demand": {"fs_read": "2 GB", "fs_write": "1 GB"}}
  ]
})";

TEST(Wdl, LoadsTasksAndDependencies) {
  const WorkflowGraph g = load_workflow(kLclsJson);
  EXPECT_EQ(g.name(), "lcls");
  EXPECT_EQ(g.task_count(), 3u);
  const TaskId merge = g.find_task("merge");
  EXPECT_EQ(g.predecessors(merge).size(), 2u);
  EXPECT_EQ(g.level_count(), 2);
}

TEST(Wdl, ParsesUnitStringsAndNumbers) {
  const WorkflowGraph g = load_workflow(kLclsJson);
  const TaskSpec& a0 = g.task(g.find_task("a0"));
  EXPECT_DOUBLE_EQ(a0.demand.external_in_bytes, 1e12);
  EXPECT_DOUBLE_EQ(a0.demand.dram_bytes_per_node, 32e9);
  EXPECT_EQ(a0.nodes, 16);
  EXPECT_EQ(a0.kind, "analysis");
  const TaskSpec& merge = g.task(g.find_task("merge"));
  EXPECT_DOUBLE_EQ(merge.fixed_duration_seconds, 120.0);
  EXPECT_DOUBLE_EQ(
      merge.demand.fs_read_bytes + merge.demand.fs_write_bytes, 3e9);
}

TEST(Wdl, NumericDemandValuesAreBaseUnits) {
  const WorkflowGraph g = load_workflow(R"({
    "tasks": [{"name": "t", "demand": {"network": 5e9, "overhead": 1.5}}]
  })");
  EXPECT_DOUBLE_EQ(g.task(0).demand.network_bytes, 5e9);
  EXPECT_DOUBLE_EQ(g.task(0).demand.overhead_seconds, 1.5);
}

TEST(Wdl, DefaultNameAndNodes) {
  const WorkflowGraph g = load_workflow(R"({"tasks": [{"name": "t"}]})");
  EXPECT_EQ(g.name(), "workflow");
  EXPECT_EQ(g.task(0).nodes, 1);
}

TEST(Wdl, ForwardDependencyReferencesWork) {
  const WorkflowGraph g = load_workflow(R"({
    "tasks": [
      {"name": "late", "depends_on": ["early"]},
      {"name": "early"}
    ]
  })");
  EXPECT_EQ(g.predecessors(g.find_task("late")).size(), 1u);
}

TEST(Wdl, UnknownDependencyThrows) {
  EXPECT_THROW(
      load_workflow(R"({"tasks": [{"name": "a", "depends_on": ["ghost"]}]})"),
      util::NotFound);
}

TEST(Wdl, UnknownDemandKeyThrows) {
  EXPECT_THROW(load_workflow(R"({
    "tasks": [{"name": "a", "demand": {"flopz_per_node": 1}}]
  })"),
               util::ParseError);
}

TEST(Wdl, UnknownTaskKeyThrowsNamingKeyAndTask) {
  // A misspelled depends_on must not load as a graph without the edge.
  for (const char* key : {"deps", "dependson"}) {
    const std::string doc =
        std::string(R"({"tasks": [{"name": "a"}, {"name": "b", ")") + key +
        R"(": ["a"]}]})";
    try {
      load_workflow(doc);
      ADD_FAILURE() << key << " was accepted";
    } catch (const util::ParseError& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("unknown task member '") + key +
                    "' in task 'b'");
    }
  }
}

TEST(Wdl, NonFiniteDemandQuantityThrows) {
  // strtod accepts these; the loader must reject them, not deadlock the
  // simulator on an infinite volume.
  for (const char* value : {"inf GB", "nan GB", "1e300 EB"}) {
    const std::string doc =
        std::string(R"({"name": "inf-probe", "tasks": [{"name": "t", )") +
        R"("demand": {"fs_read": ")" + value + R"("}}]})";
    EXPECT_THROW(load_workflow(doc), util::ParseError) << value;
  }
}

TEST(Wdl, CycleDetectedOnLoad) {
  EXPECT_THROW(load_workflow(R"({
    "tasks": [
      {"name": "a", "depends_on": ["b"]},
      {"name": "b", "depends_on": ["a"]}
    ]
  })"),
               util::InvalidArgument);
}

TEST(Wdl, MissingTasksMemberThrows) {
  EXPECT_THROW(load_workflow(R"({"name": "x"})"), util::NotFound);
}

TEST(Wdl, RoundTripPreservesStructureAndDemands) {
  const WorkflowGraph g = load_workflow(kLclsJson);
  const WorkflowGraph g2 = load_workflow(save_workflow_text(g));
  EXPECT_EQ(g2.task_count(), g.task_count());
  EXPECT_EQ(g2.name(), g.name());
  for (TaskId id = 0; id < g.task_count(); ++id) {
    const TaskSpec& a = g.task(id);
    const TaskSpec& b = g2.task(g2.find_task(a.name));
    EXPECT_EQ(a.nodes, b.nodes);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_DOUBLE_EQ(a.demand.external_in_bytes, b.demand.external_in_bytes);
    EXPECT_DOUBLE_EQ(a.demand.fs_read_bytes, b.demand.fs_read_bytes);
    EXPECT_DOUBLE_EQ(a.fixed_duration_seconds, b.fixed_duration_seconds);
  }
  const TaskId merge = g2.find_task("merge");
  EXPECT_EQ(g2.predecessors(merge).size(), 2u);
}

TEST(Wdl, SaveOmitsZeroDemand) {
  WorkflowGraph g("w");
  TaskSpec t;
  t.name = "bare";
  g.add_task(t);
  const std::string text = save_workflow_text(g);
  EXPECT_EQ(text.find("demand"), std::string::npos);
}

}  // namespace
}  // namespace wfr::dag
