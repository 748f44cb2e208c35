package repro.dataflow

import org.scalatest.matchers.should.Matchers
import repro.{SparkSpec, TestGraphs}
import repro.core.{LouvainOptions, Objective, ParLouvain}
import repro.graph.GraphGen

class GraphxLouvainSpec extends SparkSpec with Matchers {

  test("separates two cliques") {
    val g = TestGraphs.twoCliques(6)
    val res = GraphxLouvain.cluster(spark, g, lambda = 0.5)
    val cl = res.clusters
    (0 until 6).map(cl).toSet.size shouldBe 1
    (6 until 12).map(cl).toSet.size shouldBe 1
    cl(0) should not be cl(6)
  }

  test("every vertex is assigned and ids are valid") {
    val gt = GraphGen.sbm(300, 8, 25, 6, 2, seed = 3)
    val res = GraphxLouvain.cluster(spark, gt.graph, lambda = 0.4, numIter = 6, maxLevels = 4)
    res.clusters.length shouldBe 300
    res.levels should be >= 1
    res.rounds should be >= 1
  }

  test("objective is positive and comparable to shared-memory PAR-CC") {
    val inputs = Seq(
      (GraphGen.sbm(400, 8, 25, 6, 1.5, seed = 5), 0.3, 8, 5),
      (GraphGen.sbm(250, 8, 25, 6, 2, seed = 11), 0.4, 6, 4))
    for ((gt, lambda, numIter, maxLevels) <- inputs) {
      val res = GraphxLouvain.cluster(spark, gt.graph, lambda, numIter, maxLevels)
      val oGx = Objective.cc(gt.graph, res.clusters, lambda)
      val oPar = Objective.cc(gt.graph,
        ParLouvain.cluster(gt.graph, lambda, LouvainOptions(seed = 1)).clusters, lambda)
      oGx should be > 0.0
      oGx should be > 0.6 * oPar
    }
  }

  test("ground-truth recovery on an easy SBM") {
    val gt = GraphGen.sbm(400, 15, 30, 8, 1.0, seed = 9)
    val res = GraphxLouvain.cluster(spark, gt.graph, lambda = 0.1, numIter = 8, maxLevels = 5)
    repro.eval.Metrics.ari(res.clusters, gt.membership) should be > 0.5
  }

  test("isolated vertices stay singletons") {
    val g = repro.graph.LocalGraph.fromUnweightedEdges(4, Seq((0, 1)))
    val res = GraphxLouvain.cluster(spark, g, lambda = 0.5)
    val cl = res.clusters
    cl(0) shouldBe cl(1)
    Set(cl(2), cl(3)).size shouldBe 2
    cl(2) should not be cl(0)
  }
}
