package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalatest.matchers.should.Matchers
import repro.TestGraphs
import repro.graph.{GraphGen, LocalGraph}

/** Edge cases and cross-cutting invariants of the LambdaCC framework. */
class FrameworkEdgeCasesSpec extends AnyFunSuite with Matchers {

  test("empty-edge graph: everything stays singleton") {
    val g = LocalGraph.fromUnweightedEdges(5, Seq.empty)
    for (engine <- Seq("seq", "par")) {
      val res = if (engine == "seq") SeqLouvain.cluster(g, 0.5) else ParLouvain.cluster(g, 0.5)
      res.clusters.distinct.length shouldBe 5
      res.numLevels shouldBe 1
    }
  }

  test("single vertex graph") {
    val g = LocalGraph.fromUnweightedEdges(1, Seq.empty)
    SeqLouvain.cluster(g, 0.5).clusters.toSeq shouldBe Seq(0)
    ParLouvain.cluster(g, 0.5).clusters.toSeq shouldBe Seq(0)
  }

  test("single edge merges iff weight beats lambda") {
    val g = LocalGraph.fromEdges(2, Seq((0, 1, 1.0)))
    val merge = SeqLouvain.cluster(g, 0.4).clusters
    merge(0) shouldBe merge(1)
    val split = SeqLouvain.cluster(g, 1.5).clusters // λ·k·k = 1.5 > w = 1
    split(0) should not be split(1)
  }

  test("two disconnected cliques never merge at any lambda") {
    val s = 4
    val edges = (for { u <- 0 until s; v <- u + 1 until s } yield (u, v)) ++
      (for { u <- s until 2 * s; v <- u + 1 until 2 * s } yield (u, v))
    val g = LocalGraph.fromUnweightedEdges(2 * s, edges)
    for (l <- Seq(0.001, 0.5, 0.99)) {
      val cl = SeqLouvain.cluster(g, l).clusters
      cl(0) should not be cl(s)
    }
  }

  test("seq and par agree exactly on deterministic two-clique structure") {
    val g = TestGraphs.twoCliques(7)
    val s = Objective.normalize(SeqLouvain.cluster(g, 0.5).clusters)
    val p = Objective.normalize(ParLouvain.cluster(g, 0.5).clusters)
    s.toSeq.groupBy(identity).values.map(_.size).toSeq.sorted shouldBe
      p.toSeq.groupBy(identity).values.map(_.size).toSeq.sorted
  }

  test("seed changes permutation but not two-clique outcome") {
    val g = TestGraphs.twoCliques(5)
    for (seed <- 1 to 5) {
      val cl = SeqLouvain.cluster(g, 0.5, LouvainOptions(seed = seed)).clusters
      (0 until 5).map(cl).toSet.size shouldBe 1
      cl(0) should not be cl(5)
    }
  }

  test("objective monotone non-decreasing across SEQ passes (via numIter sweep)") {
    val gt = GraphGen.sbm(400, 10, 30, 6, 2, seed = 8)
    val objs = Seq(1, 2, 5, 50).map { it =>
      val cl = SeqLouvain.cluster(gt.graph, 0.3,
        LouvainOptions(numIter = it, refine = false, seed = 2)).clusters
      Objective.cc(gt.graph, cl, 0.3)
    }
    objs.sliding(2).foreach { case Seq(a, b) => b should be >= a - 1e-9 }
  }

  test("modularity clustering at tiny gamma produces few clusters, huge gamma many") {
    val gt = GraphGen.sbm(500, 10, 30, 6, 2, seed = 12)
    val few  = SeqLouvain.clusterModularity(gt.graph, 0.05).clusters.distinct.length
    val many = SeqLouvain.clusterModularity(gt.graph, 50.0).clusters.distinct.length
    many should be > few
  }

  test("maxLevels=1 limits coarsening depth") {
    val gt = GraphGen.sbm(500, 10, 30, 6, 2, seed = 14)
    val res = SeqLouvain.cluster(gt.graph, 0.05, LouvainOptions(maxLevels = 1))
    res.numLevels shouldBe 1
    an[IllegalArgumentException] should be thrownBy LouvainOptions(maxLevels = 0)
  }

  test("weighted negative edge keeps endpoints apart") {
    // triangle with one strongly negative edge: 0-1 and 0-2 attract, 1-2 repels
    val g = LocalGraph.fromEdges(3, Seq((0, 1, 1.0), (0, 2, 1.0), (1, 2, -10.0)))
    val cl = SeqLouvain.cluster(g, 0.01, LouvainOptions().toConvergence).clusters
    cl(1) should not be cl(2)
  }

  test("presetSmall variants build") {
    GraphGen.presetSmall("amazon-lite").graph.numVertices shouldBe 2000
    GraphGen.presetSmall("orkut-lite").graph.numVertices shouldBe 2000
    an[IllegalArgumentException] should be thrownBy GraphGen.presetSmall("zzz")
  }

  test("LouvainOptions.toConvergence lifts the iteration cap") {
    LouvainOptions(numIter = 10).toConvergence.numIter shouldBe Int.MaxValue
  }

  test("PAR with threads=1 equals a sequentialized schedule (valid clustering)") {
    val gt = GraphGen.sbm(300, 10, 30, 6, 2, seed = 16)
    val res = ParLouvain.cluster(gt.graph, 0.3, LouvainOptions(threads = 1))
    res.clusters.length shouldBe 300
    Objective.cc(gt.graph, res.clusters, 0.3) should be > 0.0
    // one worker leaves no races, so the schedule and the result are fixed
    ParLouvain.cluster(gt.graph, 0.3, LouvainOptions(threads = 1)).clusters shouldBe res.clusters
    // SEQ's only randomness is the seeded frontier order
    val seq = SeqLouvain.cluster(gt.graph, 0.3, LouvainOptions(seed = 7)).clusters
    SeqLouvain.cluster(gt.graph, 0.3, LouvainOptions(seed = 7)).clusters shouldBe seq
  }

  test("cluster sizes from CC at moderate lambda roughly track planted sizes") {
    val gt = GraphGen.sbm(1000, 20, 40, 8, 1.0, seed = 18)
    val cl = SeqLouvain.cluster(gt.graph, 0.05).clusters
    val sizes = cl.groupBy(identity).values.map(_.size)
    val big = sizes.count(_ >= 10)
    big should be >= 20 // dozens of community-scale clusters, not one blob
  }
}
