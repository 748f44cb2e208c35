package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import org.scalatest.matchers.should.Matchers
import repro.TestGraphs
import repro.core.{LouvainOptions, Objective, ParLouvain}
import repro.eval.Metrics
import repro.graph.GraphGen

class KwikClusterSpec extends AnyFunSuite with Matchers {

  private def assertPivotClustering(g: repro.graph.LocalGraph, cl: Array[Int]): Unit = {
    // every cluster label is its pivot's id; every member is the pivot or
    // adjacent to the pivot
    val adj = Array.fill(g.numVertices)(new java.util.HashSet[Int]())
    g.undirectedEdges.foreach { case (u, v, _) => adj(u).add(v); adj(v).add(u) }
    cl.zipWithIndex.foreach { case (p, v) =>
      cl(p) shouldBe p // pivot labels itself
      if (v != p) adj(p).contains(v) shouldBe true
    }
  }

  test("sequential output is a valid pivot clustering") {
    for (seed <- 1 to 5) {
      val g  = TestGraphs.randomUnweighted(60, 0.1, seed)
      val cl = KwikCluster.sequential(g, seed)
      assertPivotClustering(g, cl)
    }
  }

  test("C4 output equals sequential KwikCluster on the same priorities") {
    for (seed <- 1 to 8) {
      val g = TestGraphs.randomUnweighted(80, 0.08, seed)
      KwikCluster.c4(g, seed).toSeq shouldBe KwikCluster.sequential(g, seed).toSeq
    }
  }

  test("ClusterWild! output is a valid pivot clustering") {
    for (seed <- 1 to 5) {
      val g  = TestGraphs.randomUnweighted(60, 0.1, seed)
      val cl = KwikCluster.clusterWild(g, seed)
      assertPivotClustering(g, cl)
    }
  }

  test("pivot clustering of a clique is one cluster") {
    val g = repro.graph.LocalGraph.fromUnweightedEdges(6,
      for { u <- 0 until 6; v <- u + 1 until 6 } yield (u, v))
    KwikCluster.sequential(g, 1).distinct.length shouldBe 1
    KwikCluster.c4(g, 1).distinct.length shouldBe 1
  }

  test("paper claim: pivot clustering yields negative CC objective on sparse community graphs") {
    val gt = GraphGen.sbm(2000, 10, 40, 7, 2, seed = 3)
    val cl = KwikCluster.c4(gt.graph, 1)
    // λ=0.5 (the objective C4 targets); paper reports C4's LambdaCC objective
    // is "often negative"
    Objective.cc(gt.graph, cl, 0.5) should be < 0.0
  }

  test("paper claim: PAR-CC beats pivot baselines on precision/recall") {
    val gt   = GraphGen.sbm(2000, 10, 40, 7, 2, seed = 5)
    val c4   = KwikCluster.c4(gt.graph, 1)
    val ours = ParLouvain.cluster(gt.graph, 0.1, LouvainOptions(seed = 1)).clusters
    val prC4   = Metrics.averagePrecisionRecall(gt.communities.map(identity), c4)
    val prOurs = Metrics.averagePrecisionRecall(gt.communities.map(identity), ours)
    prOurs.recall should be > prC4.recall
    prOurs.f1 should be > prC4.f1
  }
}

class TectonicSpec extends AnyFunSuite with Matchers {

  test("theta=0 keeps all triangle edges: cliques stay whole") {
    val g = TestGraphs.twoCliques(5)
    val cl = Tectonic.cluster(g, 0.0)
    cl(0) shouldBe cl(4)
    cl(5) shouldBe cl(9)
  }

  test("huge theta shatters everything into singletons") {
    val g  = TestGraphs.twoCliques(5)
    val cl = Tectonic.cluster(g, 10.0)
    cl.distinct.length shouldBe g.numVertices
  }

  test("bridge edge between cliques is cut at moderate theta") {
    val g  = TestGraphs.twoCliques(6)
    val cl = Tectonic.cluster(g, 0.05)
    cl(0) should not be cl(6)
    (0 until 6).map(cl).toSet.size shouldBe 1
    (6 until 12).map(cl).toSet.size shouldBe 1
  }

  test("monotonic: higher theta never merges clusters") {
    val gt = GraphGen.sbm(1000, 10, 40, 7, 2, seed = 7)
    val lo = Tectonic.cluster(gt.graph, 0.02).distinct.length
    val hi = Tectonic.cluster(gt.graph, 0.2).distinct.length
    hi should be >= lo
  }

  test("theta sweep reuses triangle counts consistently") {
    val gt = GraphGen.sbm(500, 10, 30, 6, 2, seed = 9)
    val tc = repro.graph.Triangles.count(gt.graph)
    Tectonic.clusterWithCounts(gt.graph, tc, 0.06).toSeq shouldBe
      Tectonic.cluster(gt.graph, 0.06).toSeq
  }

  test("recovers planted communities reasonably on a strong-community graph") {
    val gt = GraphGen.sbm(2000, 10, 30, 8, 1.0, seed = 11)
    val cl = Tectonic.cluster(gt.graph, 0.06)
    val pr = Metrics.averagePrecisionRecall(gt.communities.map(identity), cl)
    pr.f1 should be > 0.4
  }
}

class ScdSpec extends AnyFunSuite with Matchers {

  test("produces a full valid clustering") {
    val gt = GraphGen.sbm(800, 10, 30, 7, 2, seed = 13)
    val cl = Scd.cluster(gt.graph)
    cl.length shouldBe 800
    cl.foreach(_ should be >= 0)
  }

  test("cliques are kept together") {
    val g  = TestGraphs.twoCliques(6)
    val cl = Scd.cluster(g)
    (0 until 6).map(cl).toSet.size shouldBe 1
    (6 until 12).map(cl).toSet.size shouldBe 1
    cl(0) should not be cl(6)
  }

  test("decent quality on strong communities, weak on noisy dense graphs (paper's orkut effect)") {
    val strong = GraphGen.sbm(2000, 10, 30, 8, 1.0, seed = 15)
    val weak   = GraphGen.sbm(2000, 40, 200, 10, 10, seed = 16)
    val prStrong = Metrics.averagePrecisionRecall(strong.communities.map(identity), Scd.cluster(strong.graph))
    val prWeak   = Metrics.averagePrecisionRecall(weak.communities.map(identity), Scd.cluster(weak.graph))
    prStrong.f1 should be > 0.5
    prWeak.f1 should be < prStrong.f1
  }

  test("deterministic given the same graph") {
    val gt = GraphGen.sbm(500, 10, 30, 6, 2, seed = 17)
    Scd.cluster(gt.graph).toSeq shouldBe Scd.cluster(gt.graph).toSeq
  }
}

class PlmBaselineSpec extends AnyFunSuite with Matchers {

  test("reaches modularity comparable to PAR-MOD (paper: 0.99-1.00x)") {
    val gt = GraphGen.sbm(2000, 10, 40, 7, 2, seed = 19)
    val plm = PlmBaseline.clusterModularity(gt.graph, 1.0)
    val our = ParLouvain.clusterModularity(gt.graph, 1.0, LouvainOptions(numIter = 32, refine = false))
    val qPlm = Objective.modularity(gt.graph, plm.clusters, 1.0)
    val qOur = Objective.modularity(gt.graph, our.clusters, 1.0)
    qPlm should be > 0.9 * qOur
    qOur should be > 0.9 * qPlm
  }

  test("CC variant produces valid clusterings") {
    val gt = GraphGen.sbm(600, 10, 30, 6, 2, seed = 21)
    val res = PlmBaseline.cluster(gt.graph, 0.3)
    res.clusters.length shouldBe 600
    Objective.cc(gt.graph, res.clusters, 0.3) should be > 0.0
  }
}

class DenseLouvainSpec extends AnyFunSuite with Matchers {

  test("matches sparse sequential quality on karate") {
    val g = GraphGen.karate
    val dense  = DenseLouvain.cluster(g, 0.05)
    val sparse = repro.core.SeqLouvain.cluster(g, 0.05, LouvainOptions(seed = 1).toConvergence)
    val oD = Objective.cc(g, dense, 0.05)
    val oS = Objective.cc(g, sparse.clusters, 0.05)
    oD should be > 0.9 * oS
  }

  test("separates two cliques") {
    val g  = TestGraphs.twoCliques(5)
    val cl = DenseLouvain.cluster(g, 0.5)
    (0 until 5).map(cl).toSet.size shouldBe 1
    cl(0) should not be cl(5)
  }

  test("rejects graphs beyond the feasibility wall") {
    val gt = GraphGen.sbm(DenseLouvain.MaxFeasibleVertices + 1, 10, 30, 2, 1, seed = 23)
    an[IllegalArgumentException] should be thrownBy DenseLouvain.cluster(gt.graph, 0.1)
  }

  test("rescaled graph at lambda 0 has the LambdaCC objective of the input") {
    val rng = new java.util.SplittableRandom(17)
    for (i <- 0 until 40) {
      val raw    = TestGraphs.randomWeighted(10 + rng.nextInt(30), 0.05 + 0.5 * rng.nextDouble(), i)
      val g      = if (i % 2 == 0) raw else raw.withDegreeWeights
      val lambda = rng.nextDouble()
      val h      = DenseLouvain.rescaled(g, lambda)
      for (s <- 0 until 10) {
        val c    = TestGraphs.randomClustering(g.numVertices, 1 + rng.nextInt(4), 1000L * i + s)
        val want = Objective.cc(g, c, lambda)
        // relative error; an edgeless graph under degree weights scores an
        // exact 0 on both sides
        math.abs(Objective.cc(h, c, 0.0) - want) should be <= 1e-9 * math.abs(want)
      }
    }
  }

  test("objective is locally optimal on small graphs") {
    val g  = TestGraphs.randomWeighted(20, 0.3, 3)
    val cl = Objective.normalize(DenseLouvain.cluster(g, 0.3))
    val base = Objective.cc(g, cl, 0.3)
    val nC = cl.max + 1
    for (v <- 0 until 20; t <- 0 to nC if t != cl(v)) {
      val trial = cl.clone(); trial(v) = t
      Objective.cc(g, trial, 0.3) should be <= base + 1e-8
    }
  }
}
