// End-to-end identity of the threaded sparse kernels: PageRank at a scale
// whose rank·link block products cross kSparseParallelMinWork, run with a
// four-thread and a one-thread pool per worker, must produce bit-identical
// ranks and move exactly the same communication. The sparse kernels fan out
// into output chunks that each add their terms in the serial order, so the
// thread count may change timing but never a result bit. A block task on a
// one-thread pool still has one helper, so neither run is serial: the two
// cut every product into different chunk counts. Identity with the serial
// kernels themselves is pinned by tests/matrix/sparse_parallel_test.cc.
#include <gtest/gtest.h>

#include "apps/pagerank.h"
#include "apps/runner.h"
#include "data/graph_gen.h"
#include "data/synthetic.h"
#include "matrix/kernels.h"

namespace dmac {
namespace {

TEST(SparseParallelE2eTest, PageRankThreadCountIsBitIdentical) {
  // soc-pokec at 1/50: ~33k nodes and ~612k edges on a 2×2 block grid, so
  // every link block carries ~150k non-zeros.
  const GraphSpec spec = SocPokec().Scaled(50);
  const int64_t bs = (spec.nodes + 1) / 2;
  const double n = static_cast<double>(spec.nodes);
  LocalMatrix link = RowNormalizedLink(spec, bs, 7);
  PageRankConfig config{spec.nodes, static_cast<double>(link.Nnz()) / (n * n),
                        4, 0.85};
  // rank·link multiplies a 1×bs row by a link block: 2·nnz madds. The
  // threaded path must actually be taken at this scale.
  ASSERT_GE(2.0 * static_cast<double>(link.BlockAt(0, 0).sparse().nnz()),
            static_cast<double>(kSparseParallelMinWork));
  LocalMatrix d = ConstantMatrix({1, spec.nodes}, bs,
                                 static_cast<Scalar>(1.0 / n));
  Bindings bindings{{"link", &link}, {"D", &d}};
  const Program program = BuildPageRankProgram(config);

  RunConfig four_threads;
  four_threads.block_size = bs;
  four_threads.num_workers = 2;
  four_threads.threads_per_worker = 4;
  RunConfig one_thread = four_threads;
  one_thread.threads_per_worker = 1;

  auto wide = RunProgram(program, bindings, four_threads);
  auto narrow = RunProgram(program, bindings, one_thread);
  ASSERT_TRUE(wide.ok()) << wide.status();
  ASSERT_TRUE(narrow.ok()) << narrow.status();

  const LocalMatrix& got = wide->result.matrices.at("rank");
  const LocalMatrix& want = narrow->result.matrices.at("rank");
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (int64_t c = 0; c < got.cols(); ++c) {
    ASSERT_EQ(got.At(0, c), want.At(0, c)) << "rank at column " << c;
  }
  const ExecStats& ws = wide->result.stats;
  const ExecStats& ns = narrow->result.stats;
  EXPECT_EQ(ws.comm_bytes(), ns.comm_bytes());
  EXPECT_EQ(ws.comm_events(), ns.comm_events());
}

}  // namespace
}  // namespace dmac
