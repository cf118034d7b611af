// Shared fixtures for the fault suite: small paper workloads and the
// bit-identity oracle that recovered runs are checked against.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "apps/gnmf.h"
#include "apps/pagerank.h"
#include "apps/runner.h"
#include "data/graph_gen.h"
#include "data/synthetic.h"
#include "fault/checksum.h"

namespace dmac {

constexpr int64_t kFaultBs = 16;

/// A workload with owned input data, small enough that a whole seed×mode
/// identity sweep stays cheap.
struct FaultAppCase {
  std::string name;
  Program program;
  std::vector<std::pair<std::string, LocalMatrix>> inputs;

  Bindings MakeBindings() const {
    Bindings b;
    for (const auto& [name_, m] : inputs) b.emplace(name_, &m);
    return b;
  }
};

inline FaultAppCase MakeSmallGnmf() {
  GnmfConfig config{48, 32, 0.25, 4, 3};
  FaultAppCase c{"gnmf", BuildGnmfProgram(config), {}};
  c.inputs.emplace_back("V", SyntheticSparse(48, 32, 0.25, kFaultBs, 31));
  return c;
}

inline FaultAppCase MakeSmallPageRank() {
  const GraphSpec spec = SocPokec().Scaled(30000);
  PageRankConfig config{spec.nodes, 0.02, 3, 0.85};
  FaultAppCase c{"pagerank", BuildPageRankProgram(config), {}};
  c.inputs.emplace_back("link", RowNormalizedLink(spec, kFaultBs, 3));
  c.inputs.emplace_back(
      "D", ConstantMatrix({1, spec.nodes}, kFaultBs,
                          1.0f / static_cast<Scalar>(spec.nodes)));
  return c;
}

/// A gradient-descent-shaped loop over random inputs only, with
/// no checkpoint hints. Without a kLoad step a durable epoch serialises
/// every live node, and without hints every producing step checkpoints,
/// so every block a fault damages has a checkpointed payload to restore.
inline FaultAppCase MakeSmallRandomIteration() {
  ProgramBuilder pb;
  Mat a = pb.Random("A", {64, 48});
  Mat x = pb.Random("x", {48, 16});
  Mat y = pb.Var("y");
  for (int i = 0; i < 3; ++i) {
    pb.Assign(y, a.mm(x));
    pb.Assign(x, x - a.t().mm(y) * 0.001);
  }
  pb.Output(x);
  pb.Output(y);
  return FaultAppCase{"random-iteration", pb.Build(), {}};
}

/// True when `program`'s plan under `config` has a Row-partitioned node:
/// its blocks are spread over the workers and have no Broadcast replica,
/// so a crashed worker's share can come back only by checkpoint restore or
/// by recomputation.
inline bool PlanHasRowNode(const Program& program, const RunConfig& config) {
  auto plan = PlanProgram(program, config);
  EXPECT_TRUE(plan.ok()) << plan.status();
  if (!plan.ok()) return false;
  for (const PlanNode& node : plan->nodes) {
    if (node.producer_step >= 0 && node.scheme() == Scheme::kRow) return true;
  }
  return false;
}

/// Recovery correctness is *bit* identity, not approximate equality: every
/// output block must hash to the fault-free run's checksum and every scalar
/// must compare exactly equal.
inline void ExpectBitIdentical(const ExecutionResult& expected,
                               const ExecutionResult& actual,
                               const std::string& context) {
  ASSERT_EQ(expected.matrices.size(), actual.matrices.size()) << context;
  for (const auto& [name, want] : expected.matrices) {
    ASSERT_TRUE(actual.matrices.count(name)) << context << " " << name;
    const LocalMatrix& got = actual.matrices.at(name);
    ASSERT_EQ(want.rows(), got.rows()) << context << " " << name;
    ASSERT_EQ(want.cols(), got.cols()) << context << " " << name;
    ASSERT_EQ(want.block_size(), got.block_size()) << context << " " << name;
    for (int64_t bi = 0; bi < want.grid().block_rows(); ++bi) {
      for (int64_t bj = 0; bj < want.grid().block_cols(); ++bj) {
        EXPECT_EQ(BlockChecksum(want.BlockAt(bi, bj)),
                  BlockChecksum(got.BlockAt(bi, bj)))
            << context << " " << name << " block (" << bi << "," << bj
            << ") diverged";
      }
    }
  }
  ASSERT_EQ(expected.scalars.size(), actual.scalars.size()) << context;
  for (const auto& [name, want] : expected.scalars) {
    ASSERT_TRUE(actual.scalars.count(name)) << context << " " << name;
    EXPECT_EQ(want, actual.scalars.at(name)) << context << " " << name;
  }
}

}  // namespace dmac
